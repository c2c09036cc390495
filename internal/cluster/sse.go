package cluster

import (
	"strconv"
	"sync"

	"abg/internal/obs"
	"abg/internal/server"
)

// Merged SSE. The front door serves one server.EventHub with a sequence
// component per shard, so merged event ids are vectors of the shards' own
// crash-stable sequence numbers (see server.EventHub). Merge order within a
// round is deterministic: shards step concurrently, but their taps buffer
// events and the driver flushes them serially in shard order after the
// round's barrier, so the merged stream is a pure function of the
// submission sequence regardless of worker count.

// shardTap subscribes to one shard's bus, buffering marshalled events until
// the driver flushes them into the front door's hub. The payload splice
// happens at capture: `{"shard":K,` replaces the opening brace, tagging
// every merged event with its origin without re-marshalling.
type shardTap struct {
	shard  int
	prefix []byte // nil for a one-shard cluster (payloads stay byte-identical)

	mu  sync.Mutex
	buf [][]byte
}

func newShardTap(shard, clusterSize int) *shardTap {
	t := &shardTap{shard: shard}
	if clusterSize > 1 {
		t.prefix = []byte(`{"shard":` + strconv.Itoa(shard) + `,`)
	}
	return t
}

// OnEvent implements obs.Subscriber; called synchronously from the shard's
// engine step (possibly concurrently with other shards' taps, never with
// itself).
func (t *shardTap) OnEvent(e obs.Event) {
	data := server.MarshalEvent(e)
	if t.prefix != nil {
		spliced := make([]byte, 0, len(t.prefix)+len(data)-1)
		spliced = append(spliced, t.prefix...)
		spliced = append(spliced, data[1:]...)
		data = spliced
	}
	t.mu.Lock()
	t.buf = append(t.buf, data)
	t.mu.Unlock()
}

// flush publishes the buffered events in capture order. Only the cluster
// driver calls flush, serially across taps, after the stepping barrier.
func (t *shardTap) flush(h *server.EventHub) {
	t.mu.Lock()
	buf := t.buf
	t.buf = nil
	t.mu.Unlock()
	for _, data := range buf {
		h.Publish(t.shard, data)
	}
}
