package server

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"abg/internal/xrand"
)

// shiftRing is the reference model of EventHub's replay ring: the earlier
// implementation, which kept the ring as a slice and evicted by shifting
// every entry down one place. It carries only the ring state, no clients.
type shiftRing struct {
	seqs, base       []uint64
	ring             []sseMsg
	ringCap, byteCap int
	ringBytes        int
	evicted          int64
}

func newShiftRing(components, ringCap, byteCap int) *shiftRing {
	return &shiftRing{seqs: make([]uint64, components), base: make([]uint64, components),
		ringCap: ringCap, byteCap: byteCap}
}

func (r *shiftRing) publish(comp int, data []byte) {
	r.seqs[comp]++
	m := sseMsg{pos: uint64(comp)<<compShift | r.seqs[comp], frame: renderFrame(r.seqs, data)}
	for len(r.ring) > 0 &&
		(len(r.ring) >= r.ringCap || r.ringBytes+len(m.frame) > r.byteCap) {
		r.base[r.ring[0].comp()] = r.ring[0].seq()
		r.ringBytes -= len(r.ring[0].frame)
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
		r.evicted++
	}
	r.ringBytes += len(m.frame)
	r.ring = append(r.ring, m)
}

func (r *shiftRing) subscribe(after []uint64) (replay []sseMsg, resyncID string) {
	resync := false
	for k, a := range after {
		if a > r.seqs[k] || a < r.base[k] {
			resync = true
		}
	}
	for _, m := range r.ring {
		if m.seq() > after[m.comp()] {
			replay = append(replay, m)
		}
	}
	if resync {
		rid := append([]uint64(nil), r.seqs...)
		for i := len(replay) - 1; i >= 0; i-- {
			rid[replay[i].comp()] = replay[i].seq() - 1
		}
		resyncID = string(appendVector(nil, rid))
	}
	return replay, resyncID
}

// TestEventRingMatchesShiftReference drives EventHub's circular replay ring
// and the shift-by-copy reference with one seeded operation sequence per
// case: publishes on 1–3 components whose frames straddle the byte cap,
// more than 3× the entry cap of them, with subscribes interleaved at fresh,
// retained, evicted and ahead-of-head positions. After every operation the
// replay slices, resync ids, base, ringBytes and evicted count must agree,
// and every slot outside the live window must hold no frame.
func TestEventRingMatchesShiftReference(t *testing.T) {
	var resyncs, replays, oversize, wrappedGrowth int
	for seed := uint64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		comps := rng.IntRange(1, 3)
		ringCap := rng.IntRange(1, 40)
		byteCap := rng.IntRange(60, 600)
		t.Run(fmt.Sprintf("seed=%d/comps=%d/ring=%d/bytes=%d", seed, comps, ringCap, byteCap), func(t *testing.T) {
			hub := NewEventHub(comps, ringCap, byteCap)
			ref := newShiftRing(comps, ringCap, byteCap)
			publishes, subscribes := 0, 0
			for op := 0; publishes < 4*ringCap+20; op++ {
				if rng.Intn(3) > 0 {
					comp := rng.Intn(comps)
					// Mostly small frames, so the entry cap binds and the
					// backing array grows; some up to past the byte cap.
					size := rng.IntRange(1, byteCap/20)
					if rng.Intn(5) == 0 {
						size = rng.IntRange(1, byteCap+byteCap/2)
					}
					data := bytes.Repeat([]byte{'x'}, size)
					if len(data) > byteCap {
						oversize++
					}
					if hub.ringLen == len(hub.ring) && hub.ringLen < ringCap && hub.ringHead != 0 {
						wrappedGrowth++ // this publish re-lays a wrapped ring
					}
					hub.Publish(comp, data)
					ref.publish(comp, data)
					publishes++
				} else {
					after := make([]uint64, comps)
					for k := range after {
						switch rng.Intn(5) {
						case 0: // fresh client
						case 1: // anywhere up to the head, often evicted
							after[k] = uint64(rng.Intn(int(ref.seqs[k]) + 1))
						case 2: // inside the retained window
							after[k] = ref.base[k] + uint64(rng.Intn(int(ref.seqs[k]-ref.base[k])+1))
						case 3: // ahead of the head
							after[k] = ref.seqs[k] + uint64(rng.IntRange(1, 3))
						default: // at the head
							after[k] = ref.seqs[k]
						}
					}
					replay, _, resyncID, unsub := hub.subscribe(4, after)
					unsub()
					wantReplay, wantResync := ref.subscribe(after)
					if !reflect.DeepEqual(replay, wantReplay) || resyncID != wantResync {
						t.Fatalf("op %d: subscribe(%v) = %d frames, resync %q; want %d frames, resync %q",
							op, after, len(replay), resyncID, len(wantReplay), wantResync)
					}
					subscribes++
					if resyncID != "" {
						resyncs++
					}
					if len(replay) > 0 {
						replays++
					}
				}
				hub.mu.Lock()
				if !reflect.DeepEqual(hub.base, ref.base) || hub.ringBytes != ref.ringBytes ||
					hub.evicted.Load() != ref.evicted || hub.ringLen != len(ref.ring) {
					t.Fatalf("op %d: base %v bytes %d evicted %d len %d; want %v %d %d %d", op,
						hub.base, hub.ringBytes, hub.evicted.Load(), hub.ringLen,
						ref.base, ref.ringBytes, ref.evicted, len(ref.ring))
				}
				for i, m := range ref.ring {
					if got := hub.at(i); !reflect.DeepEqual(got, m) {
						t.Fatalf("op %d: ring entry %d = %d, want %d", op, i, got.pos, m.pos)
					}
				}
				for i := hub.ringLen; i < len(hub.ring); i++ {
					if s := hub.ring[(hub.ringHead+i)%len(hub.ring)]; s.frame != nil {
						t.Fatalf("op %d: slot outside the ring still holds frame %d", op, s.pos)
					}
				}
				hub.mu.Unlock()
			}
			if ref.evicted == 0 || subscribes == 0 {
				t.Fatalf("sequence never evicted (%d) or subscribed (%d)", ref.evicted, subscribes)
			}
		})
	}
	if resyncs == 0 || replays == 0 || oversize == 0 || wrappedGrowth == 0 {
		t.Fatalf("sequences lack resyncs (%d), replays (%d), frames past the byte cap (%d) or growth of a wrapped ring (%d)",
			resyncs, replays, oversize, wrappedGrowth)
	}
}
