package twitter

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randEdges builds a plausible edge history: ascending follower-ish IDs with
// jitter (including backward jumps), second-granular times that mostly
// advance, and strictly increasing seqs with occasional gaps (purged edges).
func randEdges(rng *rand.Rand, n int) []segEdge {
	out := make([]segEdge, n)
	var follower, at int64 = 1_000_000, 1_300_000_000 // followers stay valid IDs
	var seq uint64
	for i := range out {
		follower += int64(rng.Intn(2000)) - 700 // may go backward
		at += int64(rng.Intn(300))
		seq += 1 + uint64(rng.Intn(3))
		out[i] = segEdge{follower: follower, at: at, seq: seq}
	}
	return out
}

func TestSegEdgeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := randEdges(rng, 2000)
	// Extremes: zero edge, negative follower delta, large values.
	edges = append(edges,
		segEdge{},
		segEdge{follower: -5, at: -100, seq: 1},
		segEdge{follower: 1 << 60, at: 1 << 59, seq: 1 << 62},
	)
	var data []byte
	var prev segEdge
	for _, e := range edges {
		data = appendSegEdge(data, prev, e)
		prev = e
	}
	prev = segEdge{}
	rest := data
	for i, want := range edges {
		got, n, ok := readSegEdge(rest, prev)
		if !ok {
			t.Fatalf("edge %d failed to decode", i)
		}
		if got != want {
			t.Fatalf("edge %d round-tripped to %+v, want %+v", i, got, want)
		}
		rest = rest[n:]
		prev = got
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

// TestEdgeListAppendAndNavigate drives the RCU append path across several
// block seals and checks every navigation primitive against the plain slice.
func TestEdgeListAppendAndNavigate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	edges := randEdges(rng, 3*edgeBlockLen+137)
	var l edgeList
	for _, e := range edges {
		l.append(e)
	}
	v := l.view()
	if v.total != len(edges) || !v.ever {
		t.Fatalf("view total=%d ever=%v, want %d true", v.total, v.ever, len(edges))
	}
	if len(v.blocks) != 3 || len(v.tail) != 137 {
		t.Fatalf("blocks=%d tail=%d, want 3 and 137", len(v.blocks), len(v.tail))
	}
	// forEach yields the exact sequence.
	i := 0
	v.forEach(func(e segEdge) bool {
		if e != edges[i] {
			t.Fatalf("forEach edge %d = %+v, want %+v", i, e, edges[i])
		}
		i++
		return true
	})
	if i != len(edges) {
		t.Fatalf("forEach stopped at %d", i)
	}
	// newestAt matches the last edge.
	if at, ok := v.newestAt(); !ok || at != edges[len(edges)-1].at {
		t.Fatalf("newestAt = %d,%v", at, ok)
	}
	// A walk anchored at an edge's seq starts on that edge and names the one
	// before it as the next anchor, at every index including both sides of
	// each block boundary.
	walk := func(fromSeq uint64, limit int) (ids []UserID, next uint64) {
		var w FollowerWalk
		w.start(v, fromSeq, limit)
		for run := w.Next(); run != nil; run = w.Next() {
			ids = append(ids, run...)
		}
		return ids, w.NextSeq()
	}
	for _, idx := range []int{0, 1, edgeBlockLen - 1, edgeBlockLen, 2*edgeBlockLen - 1, 2 * edgeBlockLen, 3*edgeBlockLen - 1, 3 * edgeBlockLen, len(edges) - 1} {
		// randEdges may skip seq values: an anchor between this seq and
		// the next still resolves here.
		anchors := []uint64{edges[idx].seq}
		if idx+1 < len(edges) && edges[idx+1].seq > edges[idx].seq+1 {
			anchors = append(anchors, edges[idx].seq+1)
		}
		for _, anchor := range anchors {
			ids, next := walk(anchor, 1)
			if len(ids) != 1 || ids[0] != UserID(edges[idx].follower) {
				t.Fatalf("walk(%d) = %v, want the follower of edge %d", anchor, ids, idx)
			}
			var want uint64
			if idx > 0 {
				want = edges[idx-1].seq
			}
			if next != want {
				t.Fatalf("walk(%d) next seq = %d, want %d", anchor, next, want)
			}
		}
	}
	if ids, next := walk(edges[0].seq-1, 10); len(ids) != 0 || next != 0 {
		t.Fatalf("walk below oldest = %v, %d, want an empty final page", ids, next)
	}
	// Pages spanning tail and multiple sealed blocks.
	for _, span := range []struct{ newest, n int }{
		{len(edges) - 1, len(edges)},            // everything
		{len(edges) - 1, 140},                   // tail into last block
		{2*edgeBlockLen + 3, edgeBlockLen + 10}, // across a block boundary
		{5, 6},                                  // oldest edges only
	} {
		ids, next := walk(edges[span.newest].seq, span.n)
		if len(ids) != span.n {
			t.Fatalf("walk(newest=%d, %d) yields %d ids", span.newest, span.n, len(ids))
		}
		for k := range ids {
			if want := UserID(edges[span.newest-k].follower); ids[k] != want {
				t.Fatalf("walk(newest=%d)[%d] = %d, want %d", span.newest, k, ids[k], want)
			}
		}
		var want uint64
		if rest := span.newest - span.n; rest >= 0 {
			want = edges[rest].seq
		}
		if next != want {
			t.Fatalf("walk(newest=%d, %d) next seq = %d, want %d", span.newest, span.n, next, want)
		}
	}
}

// TestEdgeSealerMatchesAppendPath pins block-cut canonicality: a list built
// edge-by-edge and one rebuilt through the sealer (what a removal re-seals)
// publish views with identical blocks and stream bytes.
func TestEdgeSealerMatchesAppendPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := randEdges(rng, 2*edgeBlockLen+41)
	var l edgeList
	var sealer edgeSealer
	for _, e := range edges {
		l.append(e)
		sealer.add(e)
	}
	a, b := l.view(), sealer.finish(true)
	if a.total != b.total || len(a.blocks) != len(b.blocks) || len(a.tail) != len(b.tail) {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			a.total, len(a.blocks), len(a.tail), b.total, len(b.blocks), len(b.tail))
	}
	for i := range a.blocks {
		if !bytes.Equal(a.blocks[i].data, b.blocks[i].data) {
			t.Fatalf("block %d bytes differ", i)
		}
	}
	if !bytes.Equal(appendEdgeStream(nil, a), appendEdgeStream(nil, b)) {
		t.Fatal("stream bytes differ")
	}
}

// TestEdgeStreamRoundTrip covers the snapshot wire form of a live edge
// list: the loader rebuilds exactly the view the sealer built (the same
// blocks, bytes and tail), which writes back to the same stream, and a
// stream one byte short or with a byte left over is refused.
func TestEdgeStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := randEdges(rng, 2*edgeBlockLen+57)
	var sealer edgeSealer
	for _, e := range edges {
		sealer.add(e)
	}
	want := sealer.finish(true)
	data := appendEdgeStream(nil, want)
	got, err := loadEdgeStream(data, len(edges), math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("loaded view differs from the sealed one")
	}
	if !bytes.Equal(appendEdgeStream(nil, got), data) {
		t.Fatal("loaded view writes different bytes")
	}
	if _, err := loadEdgeStream(data[:len(data)-1], len(edges), math.MaxInt64); err == nil {
		t.Fatal("truncated stream loaded")
	}
	if _, err := loadEdgeStream(data, len(edges)-1, math.MaxInt64); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestEdgeMemoryStatsBudget is the compactness acceptance: a realistic
// follower list (ascending IDs, advancing times, dense seqs) must cost at
// most 12 bytes per edge in memory — the benchmark's
// twitter.edge_bytes_per_edge row tracks the real figure, typically ~4-6.
func TestEdgeMemoryStatsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var l edgeList
	n := 20 * edgeBlockLen
	var at int64 = 1_300_000_000
	for i := 0; i < n; i++ {
		at += int64(rng.Intn(120))
		l.append(segEdge{follower: int64(2 + i + rng.Intn(50)), at: at, seq: uint64(i + 1)})
	}
	per := float64(l.view().memBytes()) / float64(n)
	if per > 12 {
		t.Fatalf("%.2f bytes/edge, budget is 12", per)
	}
	t.Logf("%.2f bytes/edge over %d edges", per, n)
}

// TestStoreEdgeMemoryBudget holds the same 12 bytes/edge budget at the
// store level, as Store.EdgeMemoryStats reports it for the 50K-follower
// bench fixture (the struct encoding the segments replaced cost ~40).
func TestStoreEdgeMemoryBudget(t *testing.T) {
	store, target := benchStore(t, 50000)
	edges, mem := store.EdgeMemoryStats(target)
	if edges != 50000 {
		t.Fatalf("bench fixture has %d edges, want 50000", edges)
	}
	if per := float64(mem) / float64(edges); per > 12 {
		t.Fatalf("edge storage at %.2f bytes/edge exceeds the 12-byte budget", per)
	}
}

// FuzzEdgeSegmentDecode pins the properties snapshot loading depends on:
// arbitrary bytes never panic (they load or return errEdgeStream), and
// whatever loads is an ordered list of count edges that writes back to
// exactly the bytes it came from — the loader accepts the canonical
// encoding only, so adopting its blocks in place keeps snapshots canonical.
func FuzzEdgeSegmentDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	stream := func(n int) []byte {
		var sealer edgeSealer
		for _, e := range randEdges(rng, n) {
			sealer.add(e)
		}
		return appendEdgeStream(nil, sealer.finish(true))
	}
	f.Add(stream(50), 50)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x80}, 1)                   // unterminated varint
	f.Add([]byte{2, 0, 2, 7}, 1)             // trailing byte
	f.Add(bytes.Repeat([]byte{0xff}, 40), 2) // overlong varints
	f.Add([]byte{0x82, 0, 0, 2}, 1)          // non-minimal varint
	f.Add(stream(edgeBlockLen+9), edgeBlockLen+9)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		v, err := loadEdgeStream(data, count, math.MaxInt64)
		if err != nil {
			if err != errEdgeStream {
				t.Fatalf("err = %v, want errEdgeStream", err)
			}
			return
		}
		if v.total != count || len(v.blocks)*edgeBlockLen+len(v.tail) != count {
			t.Fatalf("view holds %d blocks + %d tail edges, total %d, want %d", len(v.blocks), len(v.tail), v.total, count)
		}
		if again := appendEdgeStream(nil, v); !bytes.Equal(again, data) {
			t.Fatalf("loaded stream writes back as %x, was %x", again, data)
		}
		var prev segEdge
		n := 0
		v.forEach(func(e segEdge) bool {
			if e.follower < 1 || e.at < prev.at || e.seq <= prev.seq {
				t.Fatalf("edge %d = %+v after %+v", n, e, prev)
			}
			prev = e
			n++
			return true
		})
		if n != count {
			t.Fatalf("walked %d edges, want %d", n, count)
		}
	})
}
