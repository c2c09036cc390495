package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abg/internal/obs"
)

// eventDTO is the JSON wire form of one obs.Event on the SSE stream.
// Fields follow the event taxonomy; irrelevant ones are omitted.
type eventDTO struct {
	Kind        string  `json:"kind"`
	Time        int64   `json:"time"`
	Quantum     int     `json:"quantum,omitempty"`
	Job         int     `json:"job"`
	Name        string  `json:"name,omitempty"`
	Request     float64 `json:"request,omitempty"`
	IntRequest  int     `json:"intRequest,omitempty"`
	Allotment   int     `json:"allotment,omitempty"`
	P           int     `json:"p,omitempty"`
	Steps       int     `json:"steps,omitempty"`
	Work        int64   `json:"work,omitempty"`
	Waste       int64   `json:"waste,omitempty"`
	Response    int64   `json:"response,omitempty"`
	Parallelism float64 `json:"parallelism,omitempty"`
	Deprived    bool    `json:"deprived,omitempty"`
	Completed   bool    `json:"completed,omitempty"`
}

// eventBufLen sizes the stack buffer appendEvent renders into: every field
// at its widest takes about 440 bytes, so only a long name spills.
const eventBufLen = 512

// MarshalEvent renders one instrumentation event as JSON (see appendEvent),
// exactly as the SSE stream does: the cluster's merged stream renders with
// it, so a one-shard cluster's frames are byte-identical to a daemon's.
func MarshalEvent(e obs.Event) []byte {
	var buf [eventBufLen]byte
	return bytes.Clone(appendEvent(buf[:0], e))
}

// appendEvent appends e's JSON wire form to b: byte for byte what
// json.Marshal renders for eventDTO, in its field order and with its
// omitempty rules, but without reflection. Strings are written verbatim
// only when json.Marshal would write them so (plainJSON), and floats
// only when finite; any other event goes through json.Marshal itself,
// so no escaping rule is reimplemented here. FuzzEventJSON pins the
// equality.
func appendEvent(b []byte, e obs.Event) []byte {
	kind := e.Kind.String()
	if !plainJSON(kind) || !plainJSON(e.Name) || !finite(e.Request) || !finite(e.Parallelism) {
		return append(b, marshalEventReflect(e)...)
	}
	b = append(b, `{"kind":"`...)
	b = append(b, kind...)
	b = append(b, `","time":`...)
	b = strconv.AppendInt(b, e.Time, 10)
	b = appendIntField(b, `,"quantum":`, int64(e.Quantum))
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, int64(e.Job), 10)
	if e.Name != "" {
		b = append(b, `,"name":"`...)
		b = append(b, e.Name...)
		b = append(b, '"')
	}
	if e.Request != 0 {
		b = appendFloat(append(b, `,"request":`...), e.Request)
	}
	b = appendIntField(b, `,"intRequest":`, int64(e.IntRequest))
	b = appendIntField(b, `,"allotment":`, int64(e.Allotment))
	b = appendIntField(b, `,"p":`, int64(e.P))
	b = appendIntField(b, `,"steps":`, int64(e.Steps))
	b = appendIntField(b, `,"work":`, e.Work)
	b = appendIntField(b, `,"waste":`, e.Waste)
	b = appendIntField(b, `,"response":`, e.Response)
	if e.Parallelism != 0 {
		b = appendFloat(append(b, `,"parallelism":`...), e.Parallelism)
	}
	if e.Deprived {
		b = append(b, `,"deprived":true`...)
	}
	if e.Completed {
		b = append(b, `,"completed":true`...)
	}
	return append(b, '}')
}

// marshalEventReflect is the reflection path appendEvent falls back to.
func marshalEventReflect(e obs.Event) []byte {
	b, err := json.Marshal(eventDTO{
		Kind: e.Kind.String(), Time: e.Time, Quantum: e.Quantum, Job: e.Job,
		Name: e.Name, Request: e.Request, IntRequest: e.IntRequest,
		Allotment: e.Allotment, P: e.P, Steps: e.Steps, Work: e.Work,
		Waste: e.Waste, Response: e.Response, Parallelism: e.Parallelism,
		Deprived: e.Deprived, Completed: e.Completed,
	})
	if err != nil { // a NaN or ±Inf float has no JSON form
		return []byte(`{"kind":"marshal_error"}`)
	}
	return b
}

// appendIntField appends an omitempty integer field: key and value, or
// nothing when v is zero.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendFloat appends a finite f as json.Marshal renders a float64: the
// shortest round-tripping digits, in 'e' form below 1e-6 and from 1e21 up
// (as ES6 does), with a one-digit negative exponent unpadded (e-7, not
// e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// plainJSON reports whether json.Marshal writes s between its quotes
// unchanged: printable ASCII other than '"' and '\\', and other than '<',
// '>' and '&', which it escapes for HTML.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// sseMsg is one stream item: its SSE frame ("id: …\ndata: …\n\n"),
// rendered once at publish, and its position — the publishing component in
// the top compShift bits, that component's sequence number below.
type sseMsg struct {
	pos   uint64
	frame []byte
}

const compShift = 48

func (m sseMsg) comp() int   { return int(m.pos >> compShift) }
func (m sseMsg) seq() uint64 { return m.pos & (1<<compShift - 1) }

// EventHub fans instrumentation events out to the connected SSE clients. A
// daemon subscribes its hub to the run's obs bus, so OnEvent is called
// synchronously from the simulation driver: sends are non-blocking, and a
// client that cannot keep up loses events (counted in dropped) rather than
// stalling the scheduler — backpressure never propagates into the quantum
// clock.
//
// Every event carries a sequence id, assigned whether or not a client is
// connected, and the newest events are retained in a bounded replay ring. A
// client that reconnects with Last-Event-ID resumes from the ring without
// loss; one that fell behind the ring is told to resync. Because the ids
// count the deterministic event stream itself (and the counter is persisted
// in engine snapshots), a recovered daemon re-issues the same events under
// the same ids — reconnecting subscribers cannot tell a crash-restart from a
// slow network.
//
// Sequence numbers are kept per component. A daemon's hub has one; a cluster
// front door's has one per shard, fed by the shards' event taps. An event's
// id is the vector of every component's position as of that event,
// "s0,s1,…,sN-1" — with one component, a plain monotonic number. Shards
// recover independently, so no total order of past events survives a crash,
// only the per-shard orders do; the vector never invents a global counter a
// restart could not reconstruct. The Last-Event-ID contract applies per
// component.
type EventHub struct {
	mu      sync.Mutex
	clients map[chan sseMsg]struct{}
	seqs    []uint64 // per component: sequence of the newest published event
	// base is, per component, the position just before its oldest event in
	// the ring: a client behind it has lost events and must resync.
	base []uint64
	// ring is a circular buffer of the newest events: ringLen entries,
	// oldest at ringHead, so evicting the oldest costs O(1). Its backing
	// array grows on demand up to ringCap entries.
	ring     []sseMsg
	ringHead int
	ringLen  int
	ringCap  int
	// byteCap bounds the summed frame bytes the ring may hold. Event
	// payloads vary by an order of magnitude across kinds, so an entry cap
	// alone leaves the ring's memory footprint workload-dependent; whichever
	// cap is hit first evicts the oldest events. At least one event is
	// always retained so replay ids stay anchored.
	byteCap   int
	ringBytes int          // summed len(frame) currently in the ring
	n         atomic.Int64 // len(clients), readable without the lock
	dropped   atomic.Int64
	evicted   atomic.Int64 // events pushed out of the replay ring
	closed    bool
	// frameless hubs number events but render and keep no frames: a
	// cluster shard's, whose events reach clients through the front door
	// (see dropFrames).
	frameless atomic.Bool
}

// NewEventHub builds a hub with the given number of sequence components and
// replay-ring caps (Config.EventRing and Config.EventRingBytes; zero selects
// 4096 events and 4 MiB).
func NewEventHub(components, ringCap, byteCap int) *EventHub {
	if ringCap <= 0 {
		ringCap = 4096
	}
	if byteCap <= 0 {
		byteCap = 4 << 20
	}
	return &EventHub{
		clients: make(map[chan sseMsg]struct{}),
		seqs:    make([]uint64, components),
		base:    make([]uint64, components),
		ringCap: ringCap, byteCap: byteCap,
	}
}

// OnEvent implements obs.Subscriber for a daemon's one-component hub. The
// JSON is rendered on the stack: Publish copies it into the frame. A
// frameless hub only numbers the event.
func (h *EventHub) OnEvent(e obs.Event) {
	if h.frameless.Load() {
		h.mu.Lock()
		h.seqs[0]++
		h.base[0] = h.seqs[0]
		h.mu.Unlock()
		return
	}
	var buf [eventBufLen]byte
	h.Publish(0, appendEvent(buf[:0], e))
}

// dropFrames makes the hub frameless: from now on it keeps numbering
// events — the count is the stream's position, which snapshot records and
// SSESeq carry — but renders no frame and keeps none, and it releases the
// frames its replay ring holds.
func (h *EventHub) dropFrames() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.frameless.Store(true)
	h.ring, h.ringHead, h.ringLen, h.ringBytes = nil, 0, 0, 0
	copy(h.base, h.seqs)
}

// retained returns the events and frame bytes the replay ring holds.
func (h *EventHub) retained() (events, bytes int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ringLen, h.ringBytes
}

// Publish appends one marshalled event to component comp's stream.
func (h *EventHub) Publish(comp int, data []byte) {
	h.mu.Lock()
	h.seqs[comp]++
	m := sseMsg{pos: uint64(comp)<<compShift | h.seqs[comp], frame: renderFrame(h.seqs, data)}
	for h.ringLen > 0 &&
		(h.ringLen >= h.ringCap || h.ringBytes+len(m.frame) > h.byteCap) {
		old := &h.ring[h.ringHead]
		h.base[old.comp()] = old.seq()
		h.ringBytes -= len(old.frame)
		*old = sseMsg{} // release the frame
		h.ringHead = (h.ringHead + 1) % len(h.ring)
		h.ringLen--
		h.evicted.Add(1)
	}
	h.pushLocked(m)
	for ch := range h.clients {
		select {
		case ch <- m:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// pushLocked appends m as the ring's newest entry. When the backing array
// is full — which eviction allows only below ringCap — it is re-laid
// oldest-first into one twice as large. Caller holds h.mu.
func (h *EventHub) pushLocked(m sseMsg) {
	if h.ringLen == len(h.ring) {
		grown := make([]sseMsg, min(max(2*len(h.ring), 16), h.ringCap))
		for i := range h.ringLen {
			grown[i] = h.at(i)
		}
		h.ring, h.ringHead = grown, 0
	}
	h.ring[(h.ringHead+h.ringLen)%len(h.ring)] = m
	h.ringLen++
	h.ringBytes += len(m.frame)
}

// at returns the ring's i-th oldest entry. Caller holds h.mu.
func (h *EventHub) at(i int) sseMsg { return h.ring[(h.ringHead+i)%len(h.ring)] }

// SetSeq restores one component's sequence counter (recovery only, before
// any of its events flow).
func (h *EventHub) SetSeq(comp int, seq uint64) {
	h.mu.Lock()
	h.seqs[comp] = seq
	h.base[comp] = seq
	h.mu.Unlock()
}

// subscribe registers a client that has seen events up to the per-component
// positions in after (all zero for a fresh client). It returns the events
// the ring still holds beyond after, the live channel, and an unsubscribe
// func — registered and replayed under one lock acquisition, so no event
// can fall between the replay slice and the channel. A non-empty resyncID
// reports that the client's position cannot be resumed: some component was
// evicted from the ring, or is ahead of the hub (the client saw a journal
// tail that did not survive a crash). The client must refetch absolute
// state; resyncID is the id to send with the marker. A nil channel is
// returned after the hub closed.
func (h *EventHub) subscribe(buffer int, after []uint64) (replay []sseMsg, ch <-chan sseMsg, resyncID string, unsub func()) {
	c := make(chan sseMsg, buffer)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, "", func() {}
	}
	resync := false
	for k, a := range after {
		if a > h.seqs[k] || a < h.base[k] {
			resync = true
		}
	}
	for i := range h.ringLen {
		if m := h.at(i); m.seq() > after[m.comp()] {
			replay = append(replay, m)
		}
	}
	if resync {
		// The marker's id is, per component, the position just before the
		// replay (the current head where nothing is replayable), so the
		// client's next reconnect carries on from what it actually saw.
		rid := append([]uint64(nil), h.seqs...)
		for i := len(replay) - 1; i >= 0; i-- {
			rid[replay[i].comp()] = replay[i].seq() - 1
		}
		resyncID = string(appendVector(nil, rid))
	}
	h.clients[c] = struct{}{}
	h.n.Store(int64(len(h.clients)))
	var once sync.Once
	return replay, c, resyncID, func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.clients[c]; ok {
				delete(h.clients, c)
				close(c)
			}
			h.n.Store(int64(len(h.clients)))
			h.mu.Unlock()
		})
	}
}

// Seq returns the sum of the per-component positions: for a daemon's hub,
// the id of the most recently published event.
func (h *EventHub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum uint64
	for _, s := range h.seqs {
		sum += s
	}
	return sum
}

// ID renders the current per-component positions as a wire id.
func (h *EventHub) ID() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return string(appendVector(nil, h.seqs))
}

// FillState copies the hub's subscriber, drop and position figures into a
// state snapshot.
func (h *EventHub) FillState(st *StateDTO) {
	st.SSEClients = h.n.Load()
	st.SSEDropped = h.dropped.Load()
	st.LastEventID = h.Seq()
}

// Close disconnects every client (end of drain): their channels close,
// which ends the streaming handlers so HTTP shutdown can complete.
func (h *EventHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for ch := range h.clients {
		delete(h.clients, ch)
		close(ch)
	}
	h.n.Store(0)
}

// Drain pacing. A drain runs its rounds back to back, faster than an SSE
// writer moves frames out, and on one CPU the writers run only when the
// drain goroutine blocks, so a subscriber's 1024-frame queue would overflow.
// Before each round DrainShards waits until every subscriber still reading
// has room for as many frames as the largest round so far published. One
// whose queue has not shrunk during paceStall of waiting is not waited for
// (its overflow is dropped and counted, as outside a drain), and one drain
// waits paceMax at most in all.
const (
	paceTick  = time.Millisecond
	paceStall = 500 * time.Millisecond
	paceMax   = 5 * time.Second
)

// pacer holds one drain's rounds back for the subscribers of a hub.
type pacer struct {
	hub    *EventHub
	seq    uint64        // the hub's position at the previous wait
	need   int           // frames published by the largest round so far
	spent  time.Duration // waited so far, at most paceMax
	queues map[chan sseMsg]queueWatch
}

// queueWatch is what a pacer knows of one subscriber's queue.
type queueWatch struct {
	depth int           // its length at the last poll
	stuck time.Duration // waited on it since it last shrank
}

// wait blocks until every subscriber still reading has room for the next
// round's frames, or the drain's waiting time is spent.
func (p *pacer) wait() {
	seq := p.hub.Seq()
	p.need = max(p.need, int(seq-p.seq))
	p.seq = seq
	var slept time.Duration
	for p.spent < paceMax && p.hub.holdsBack(p, slept) {
		t := time.Now()
		time.Sleep(paceTick)
		slept = time.Since(t)
		p.spent += slept
	}
}

// holdsBack reports whether a subscriber still reading lacks room for
// p.need frames, after charging the time slept since the previous poll to
// every queue that did not shrink meanwhile.
func (h *EventHub) holdsBack(p *pacer, slept time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	held := false
	for ch := range h.clients {
		q, n := p.queues[ch], len(ch)
		if n < q.depth {
			q.stuck = 0
		} else {
			q.stuck += slept
		}
		q.depth = n
		p.queues[ch] = q
		if cap(ch)-n < min(p.need, cap(ch)) && q.stuck < paceStall {
			held = true
		}
	}
	return held
}

// Handler serves GET /api/v1/events: every published event as one `id:` +
// `data:` JSON frame, for a daemon and a cluster front door alike. A client
// that reconnects with Last-Event-ID (one number per component, 400
// otherwise) resumes from the bounded replay ring without loss; one whose
// position has been evicted receives an `event: resync` frame first and
// must refetch absolute state (GET /api/v1/state). Each wake-up writes the
// frame that woke it and every frame queued behind it, then flushes once.
// The stream ends when the client disconnects, or when the hub closes at
// the end of the drain, after the frames still queued are written and
// flushed.
func (h *EventHub) Handler(scheduler string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			WriteJSON(w, http.StatusInternalServerError, ErrorDTO{"streaming unsupported"})
			return
		}
		lastID := r.Header.Get("Last-Event-ID")
		if lastID == "" {
			lastID = r.URL.Query().Get("lastEventID")
		}
		after := make([]uint64, len(h.seqs))
		if lastID != "" {
			if after, ok = parseVector(lastID, len(h.seqs)); !ok {
				WriteJSON(w, http.StatusBadRequest, ErrorDTO{"bad Last-Event-ID: " + lastID})
				return
			}
		}
		replay, ch, resyncID, unsubscribe := h.subscribe(1024, after)
		defer unsubscribe()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "retry: %d\n: abgd event stream (%s)\n\n", sseRetryHintMillis, scheduler)
		flusher.Flush()
		if ch == nil { // hub already closed (drained)
			return
		}
		if resyncID != "" {
			fmt.Fprintf(w, "id: %s\nevent: resync\ndata: {\"reason\":\"replay ring evicted, refetch /api/v1/state\"}\n\n", resyncID)
		}
		for _, m := range replay {
			if _, err := w.Write(m.frame); err != nil {
				return
			}
		}
		flusher.Flush()
		for {
			select {
			case m, open := <-ch:
				if !open {
					return
				}
				if _, err := w.Write(m.frame); err != nil {
					return
				}
				// Every frame queued by now goes out under the same flush:
				// a burst costs one write(2), not one per frame. This is
				// the channel's only receiver, so the len(ch) frames are
				// there even after a close; the bound keeps a steady
				// publisher from postponing the flush.
				for range len(ch) {
					if _, err := w.Write((<-ch).frame); err != nil {
						return
					}
				}
				flusher.Flush()
			case <-r.Context().Done():
				return
			}
		}
	}
}

// sseRetryHintMillis is the reconnect delay hint sent at stream start.
const sseRetryHintMillis = 1000

// renderFrame renders one event's SSE frame under the id seqs.
func renderFrame(seqs []uint64, data []byte) []byte {
	b := make([]byte, 0, len("id: \ndata: \n\n")+21*len(seqs)+len(data))
	b = append(b, "id: "...)
	b = appendVector(b, seqs)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	return append(b, "\n\n"...)
}

// appendVector appends per-component positions as the wire id: "s0,s1,…".
func appendVector(b []byte, seqs []uint64) []byte {
	for i, s := range seqs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, s, 10)
	}
	return b
}

// parseVector parses a Last-Event-ID into n per-component positions.
func parseVector(s string, n int) ([]uint64, bool) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, false
	}
	out := make([]uint64, n)
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}
