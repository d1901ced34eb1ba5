package twitter

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync/atomic"
)

//fp:hotpath

// Compact follower-edge segments. A target's follower list is the store's
// only unbounded per-account structure: the paper's populations go to
// hundreds of thousands of followers and the ROADMAP's scaling item to 10M+
// accounts, so each edge must cost bytes, not a 40-byte Follow struct. Edges
// arrive strictly append-ordered (the Section IV-B invariant), which makes
// them ideal delta-coding material:
//
//   - sealed blocks of exactly edgeBlockLen edges, each block a byte string
//     of zigzag-delta varints chained from the previous edge (follower ID,
//     unix-second timestamp, seq — all three monotone-ish, so deltas are
//     tiny: ~4-6 bytes per edge against ~40 for the struct form);
//   - a small mutable tail of decoded edges awaiting their block's seal.
//
// Reads never take the store lock. The whole list is published RCU-style
// through one atomic.Pointer[edgeView]: writers (serialised by the store
// mutex) build a new view and Store it; readers Load a frozen view and
// navigate it without coordination. Appends reuse the previous view's
// blocks slice and tail backing (the appended slot was never visible to any
// published view, so old readers cannot observe it), which keeps the common
// append allocation-light. A removal keeps the blocks before the first
// removed edge and re-seals the survivors from there on (edgeView.without).
//
// Block boundaries are canonical: every sealed block holds exactly
// edgeBlockLen edges, so live index i lives in block i/edgeBlockLen at
// offset i%edgeBlockLen, and a removal re-cuts the survivors at the same
// multiples — which is why the blocks before its first removed edge come
// out unchanged. Navigation needs no per-block counts and snapshot bytes
// depend on the live edges alone.
//
// This file is fpvet //fp:hotpath territory: no fmt, no reflection, and no
// construction of ID slices — a page is walked a block at a time
// (FollowerWalk) and whoever wants it as a slice copies it elsewhere
// (FollowersPage, twitter.go).

// edgeBlockLen is the number of edges per sealed block. 512 keeps a block's
// decode scratch (512 * 24B = 12KB) comfortably on the stack while making
// per-block header overhead (~56B) negligible against ~2-3KB of payload.
const edgeBlockLen = 512

// segEdge is one decoded follow edge in segment form: unix-second time
// resolution, 24 bytes. The storage twin of Follow.
type segEdge struct {
	follower int64
	at       int64 // unix seconds
	seq      uint64
}

// edgeBlock is one sealed, immutable block of exactly edgeBlockLen edges,
// delta-varint encoded. firstSeq/lastSeq bound the block's seq range for
// binary search; lastAt carries the block's newest timestamp so the
// monotonicity check never decodes a block.
type edgeBlock struct {
	data     []byte
	firstSeq uint64
	lastSeq  uint64
	lastAt   int64
}

// edgeView is one immutable published state of a target's live edge list.
// Readers navigate a view with no lock and no coordination; every mutation
// publishes a fresh view.
type edgeView struct {
	blocks []edgeBlock
	tail   []segEdge // decoded edges not yet sealed; len < edgeBlockLen
	total  int       // live edge count: len(blocks)*edgeBlockLen + len(tail)
	// ever reports whether an edge was ever materialised for this target
	// (live now, or alive once and since removed). Targets promoted by
	// SetFriends/AppendTweet alone have ever == false, and their synthetic
	// follower counter stays authoritative — the follower-count-zeroing
	// bugfix. Snapshots persist it as is (persistTarget.Ever).
	ever bool
}

// emptyEdgeView backs lists that have never published a view.
var emptyEdgeView edgeView

// edgeList is the per-target handle: one atomic pointer to the current view.
type edgeList struct {
	v atomic.Pointer[edgeView]
}

// view returns the current published view (never nil).
func (l *edgeList) view() *edgeView {
	if v := l.v.Load(); v != nil {
		return v
	}
	return &emptyEdgeView
}

// append publishes old state + one edge. Caller must hold the store's
// write lock (the single-writer guarantee the reuse below relies
// on). The new tail may share backing with the previous view's tail: the
// appended slot sits past every published length, so no reader of an older
// view can reach it, and Go's append either writes that invisible slot or
// reallocates — both safe under RCU.
func (l *edgeList) append(e segEdge) {
	old := l.view()
	nv := &edgeView{blocks: old.blocks, total: old.total + 1, ever: true}
	nv.tail = append(old.tail, e)
	if len(nv.tail) == edgeBlockLen {
		nv.blocks = sealAppend(old.blocks, nv.tail)
		nv.tail = nil
	}
	l.v.Store(nv)
}

// sealAppend appends the sealed form of tail to blocks, reusing spare block
// capacity when present — again invisible to published views, whose block
// slices stop short of the appended slot.
func sealAppend(blocks []edgeBlock, tail []segEdge) []edgeBlock {
	return append(blocks, sealBlock(tail))
}

// sealBlock encodes exactly edgeBlockLen edges into an immutable block.
func sealBlock(tail []segEdge) edgeBlock {
	data := make([]byte, 0, 6*edgeBlockLen)
	var prev segEdge
	for _, e := range tail {
		data = appendSegEdge(data, prev, e)
		prev = e
	}
	last := tail[len(tail)-1]
	return edgeBlock{data: data, firstSeq: tail[0].seq, lastSeq: last.seq, lastAt: last.at}
}

// edgeSealer accumulates edges in order and cuts canonical blocks; a
// removal re-seals its survivors through it.
type edgeSealer struct {
	blocks []edgeBlock
	tail   []segEdge
	total  int
}

func (b *edgeSealer) add(e segEdge) {
	b.tail = append(b.tail, e)
	b.total++
	if len(b.tail) == edgeBlockLen {
		b.blocks = append(b.blocks, sealBlock(b.tail))
		b.tail = b.tail[:0]
	}
}

// finish freezes the accumulated edges as a view. The tail is copied to
// exact length so a later in-place append can never alias the builder's
// scratch buffer.
func (b *edgeSealer) finish(ever bool) *edgeView {
	nv := &edgeView{blocks: b.blocks, total: b.total, ever: ever}
	if len(b.tail) > 0 {
		nv.tail = make([]segEdge, len(b.tail))
		copy(nv.tail, b.tail)
	}
	return nv
}

// without returns the view left when the oldest live edge of each follower
// in drop is removed, and how many edges that removed; with none it returns
// nil and 0. It empties drop of the followers it finds.
//
// Blocks are cut at canonical multiples of edgeBlockLen, so a block wholly
// before the first removed edge comes out of a rewrite byte for byte as it
// went in. without decodes the blocks oldest-first, each once, and keeps
// every block before the first one holding a removed edge; from that block
// on it re-seals the survivors. The kept headers are copied into a fresh
// slice, never sub-sliced: an append seals into spare capacity of its
// view's blocks slice (sealAppend), which would overwrite a block that v,
// still published to readers, serves. The scan cannot start from the
// newest edge and stop once drop is empty, because a follower may hold
// several edges and the oldest is the one removed.
func (v *edgeView) without(drop map[UserID]struct{}) (*edgeView, int) {
	var sealer *edgeSealer // nil until the first removed edge
	removed := 0
	pass := func(bi int, edges []segEdge) {
		if sealer == nil {
			if !holdsAny(edges, drop) {
				return
			}
			sealer = &edgeSealer{blocks: make([]edgeBlock, bi, len(v.blocks)), total: bi * edgeBlockLen}
			copy(sealer.blocks, v.blocks[:bi])
		}
		for _, e := range edges {
			if _, ok := drop[UserID(e.follower)]; ok {
				delete(drop, UserID(e.follower))
				removed++
			} else {
				sealer.add(e)
			}
		}
	}
	var buf [edgeBlockLen]segEdge
	for bi := range v.blocks {
		v.blocks[bi].decodeInto(&buf)
		pass(bi, buf[:])
	}
	pass(len(v.blocks), v.tail)
	if removed == 0 {
		return nil, 0
	}
	return sealer.finish(true), removed
}

// holdsAny reports whether a follower in drop has an edge in edges.
func holdsAny(edges []segEdge, drop map[UserID]struct{}) bool {
	for _, e := range edges {
		if _, ok := drop[UserID(e.follower)]; ok {
			return true
		}
	}
	return false
}

// newestAt returns the newest live edge's unix time, if any edge is live.
func (v *edgeView) newestAt() (int64, bool) {
	if n := len(v.tail); n > 0 {
		return v.tail[n-1].at, true
	}
	if n := len(v.blocks); n > 0 {
		return v.blocks[n-1].lastAt, true
	}
	return 0, false
}

// decodeInto decodes a sealed block into dst. A failure is impossible for
// blocks this package sealed; it indicates memory corruption, so the one
// caller-visible response is to panic rather than serve wrong edges.
func (b *edgeBlock) decodeInto(dst *[edgeBlockLen]segEdge) {
	data := b.data
	var prev segEdge
	for i := 0; i < edgeBlockLen; i++ {
		e, n, ok := readSegEdge(data, prev)
		if !ok {
			panic("twitter: corrupt edge segment block")
		}
		data = data[n:]
		dst[i] = e
		prev = e
	}
	if len(data) != 0 {
		panic("twitter: trailing bytes in edge segment block")
	}
}

// FollowerWalk reads one page of a follower list newest-first, a run of IDs
// at a time, straight off a frozen edge view: no store lock, no page-sized
// copy, nothing on the heap (the walk is a value on its caller's stack).
// Store.WalkFollowers starts one; Next yields the runs; NextSeq, once Next
// has returned nil, is the anchor of the following page. It is the one
// page read: FollowersPage copies its runs into a slice, the followers/ids
// handler prints them into the response as they come.
//
// A sealed block chains its deltas from the block's oldest edge, so it can
// only be decoded forwards; the walk decodes it once, back to front into
// ids, and serves the newest-first runs as subslices. Of the three varints
// of an edge only the follower is decoded for the blocks a page passes
// through; the timestamp and the seq are stepped over. Seqs are decoded
// only for the block where the page's anchor edge lies (locate) and the
// block holding the next page's anchor (NextSeq), each once: they are held
// apart from the ids, and the block the page ends in is decoded with its
// seqs when Next first reaches it.
type FollowerWalk struct {
	// Total is the live follower count of the view the page is cut from.
	Total int

	v        *edgeView
	at       int // live index of the next edge to yield
	left     int // edges the page may still yield
	block    int // sealed block held in ids, -1 for none
	seqBlock int // sealed block held in seqs, -1 for none
	// Edge k of a held block sits at position edgeBlockLen-1-k.
	ids  [edgeBlockLen]UserID
	seqs [edgeBlockLen]uint64
}

// WalkFollowers points w at the page of target's followers that
// FollowersPage(target, fromSeq, limit) returns: up to limit edges, starting
// at the newest one whose sequence number is <= fromSeq.
func (s *Store) WalkFollowers(w *FollowerWalk, target UserID, fromSeq uint64, limit int) error {
	if err := s.checkExists(target); err != nil {
		return err
	}
	v := &emptyEdgeView
	if td := s.targetOf(target); td != nil {
		v = td.edges.view()
	}
	w.start(v, fromSeq, limit)
	return nil
}

func (w *FollowerWalk) start(v *edgeView, fromSeq uint64, limit int) {
	w.Total, w.v, w.at, w.left, w.block, w.seqBlock = v.total, v, -1, 0, -1, -1
	if limit <= 0 {
		return
	}
	if w.at = w.locate(fromSeq); w.at >= 0 {
		w.left = min(limit, w.at+1)
	}
}

// Len is the number of IDs Next has still to yield.
func (w *FollowerWalk) Len() int { return w.left }

// locate returns the live index of the newest edge whose seq is <= fromSeq,
// or -1 if every live edge is newer (anchor below the oldest survivor).
// O(log blocks); a block is decoded only for an anchor strictly inside it,
// and stays held for the page's first run.
func (w *FollowerWalk) locate(fromSeq uint64) int {
	v := w.v
	sealed := len(v.blocks) * edgeBlockLen
	if n := len(v.tail); n > 0 && fromSeq >= v.tail[0].seq {
		return sealed + sort.Search(n, func(k int) bool { return v.tail[k].seq > fromSeq }) - 1
	}
	if len(v.blocks) == 0 || fromSeq < v.blocks[0].firstSeq {
		return -1
	}
	bi := sort.Search(len(v.blocks), func(k int) bool { return v.blocks[k].firstSeq > fromSeq }) - 1
	if fromSeq >= v.blocks[bi].lastSeq {
		return bi*edgeBlockLen + edgeBlockLen - 1
	}
	w.load(bi, true)
	newer := sort.Search(edgeBlockLen, func(k int) bool { return w.seqs[k] <= fromSeq })
	return bi*edgeBlockLen + edgeBlockLen - 1 - newer
}

// load decodes the follower ids of sealed block bi into ids, newest edge
// first, stepping over each edge's timestamp; with seqs it decodes the seqs
// into seqs too, and otherwise steps over them. As in decodeInto,
// malformed bytes mean memory corruption and panic.
func (w *FollowerWalk) load(bi int, seqs bool) {
	data := w.v.blocks[bi].data
	var follower, seq int64
	for k := edgeBlockLen - 1; k >= 0; k-- {
		df, n := uvarint(data)
		if n <= 0 {
			panic("twitter: corrupt edge segment block")
		}
		n = skipVarint(data, n) // the timestamp delta
		if seqs {
			if n >= len(data) {
				panic("twitter: corrupt edge segment block")
			}
			ds, m := uvarint(data[n:])
			if m <= 0 {
				panic("twitter: corrupt edge segment block")
			}
			n += m
			seq += unzigzag(ds)
			w.seqs[k] = uint64(seq)
		} else {
			n = skipVarint(data, n) // the seq delta
		}
		if n > len(data) {
			panic("twitter: corrupt edge segment block")
		}
		data = data[n:]
		follower += unzigzag(df)
		w.ids[k] = UserID(follower)
	}
	if len(data) != 0 {
		panic("twitter: trailing bytes in edge segment block")
	}
	w.block = bi
	if seqs {
		w.seqBlock = bi
	}
}

// skipVarint returns the offset just past the varint starting at data[n:].
// It may point past the end of data when that varint is cut short; callers
// check.
func skipVarint(data []byte, n int) int {
	for n < len(data) && data[n] >= 0x80 {
		n++
	}
	return n + 1
}

// uvarint is binary.Uvarint with the one-byte case — nearly every seq delta
// and most follower deltas — decided inline.
func uvarint(data []byte) (uint64, int) {
	if len(data) > 0 && data[0] < 0x80 {
		return uint64(data[0]), 1
	}
	return binary.Uvarint(data)
}

// Next returns the page's next run of follower IDs, newest first, or nil
// when the page is complete. The run is the walk's own memory: it is valid
// until the next call on the walk.
func (w *FollowerWalk) Next() []UserID {
	if w.left == 0 {
		return nil
	}
	v := w.v
	sealed := len(v.blocks) * edgeBlockLen
	var run []UserID
	if w.at >= sealed {
		run = w.ids[:min(w.left, w.at-sealed+1)]
		for k := range run {
			run[k] = UserID(v.tail[w.at-sealed-k].follower)
		}
		w.block = -1
	} else {
		if bi := w.at / edgeBlockLen; bi != w.block {
			// A page ending inside this block anchors the next one here:
			// decode the seqs now rather than the block again in NextSeq.
			w.load(bi, w.at-w.left >= bi*edgeBlockLen)
		}
		newest := edgeBlockLen - 1 - w.at%edgeBlockLen
		run = w.ids[newest : newest+min(w.left, edgeBlockLen-newest)]
	}
	w.at -= len(run)
	w.left -= len(run)
	return run
}

// NextSeq returns the sequence number of the edge after the page's last —
// the anchor of the next page — or 0 when the page reaches the oldest
// surviving edge. Call it once Next has returned nil.
func (w *FollowerWalk) NextSeq() uint64 {
	v := w.v
	rest := w.at - w.left
	sealed := len(v.blocks) * edgeBlockLen
	switch {
	case rest < 0:
		return 0
	case rest >= sealed:
		return v.tail[rest-sealed].seq
	case rest%edgeBlockLen == edgeBlockLen-1:
		return v.blocks[rest/edgeBlockLen].lastSeq
	}
	if bi := rest / edgeBlockLen; bi != w.seqBlock {
		w.load(bi, true)
	}
	return w.seqs[edgeBlockLen-1-rest%edgeBlockLen]
}

// forEach decodes the live edges oldest-first and calls fn for each until
// it returns false.
func (v *edgeView) forEach(fn func(segEdge) bool) {
	var buf [edgeBlockLen]segEdge
	for bi := range v.blocks {
		v.blocks[bi].decodeInto(&buf)
		for i := range buf {
			if !fn(buf[i]) {
				return
			}
		}
	}
	for _, e := range v.tail {
		if !fn(e) {
			return
		}
	}
}

// memBytes reports the in-memory footprint of the view's edge storage:
// sealed payload bytes, tail entries, and per-block headers.
func (v *edgeView) memBytes() int {
	n := 0
	for i := range v.blocks {
		n += len(v.blocks[i].data)
	}
	const blockHeader = 56 // slice header + 2 seqs + lastAt
	const tailEntry = 24   // sizeof(segEdge)
	return n + len(v.blocks)*blockHeader + len(v.tail)*tailEntry
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendSegEdge encodes e relative to prev: three chained zigzag deltas
// (follower, at, seq), each a uvarint.
func appendSegEdge(dst []byte, prev, e segEdge) []byte {
	dst = binary.AppendUvarint(dst, zigzag(e.follower-prev.follower))
	dst = binary.AppendUvarint(dst, zigzag(e.at-prev.at))
	dst = binary.AppendUvarint(dst, zigzag(int64(e.seq)-int64(prev.seq)))
	return dst
}

// readSegEdge decodes one edge relative to prev, returning the edge, the
// bytes consumed, and whether the bytes were the edge's one encoding: three
// minimal uvarints, exactly as appendSegEdge writes them (a multi-byte
// varint ending in 0x00 is the one non-minimal form binary.Uvarint takes).
func readSegEdge(data []byte, prev segEdge) (segEdge, int, bool) {
	df, n1 := binary.Uvarint(data)
	if n1 <= 0 || n1 > 1 && data[n1-1] == 0 {
		return segEdge{}, 0, false
	}
	da, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 || n2 > 1 && data[n1+n2-1] == 0 {
		return segEdge{}, 0, false
	}
	ds, n3 := binary.Uvarint(data[n1+n2:])
	if n3 <= 0 || n3 > 1 && data[n1+n2+n3-1] == 0 {
		return segEdge{}, 0, false
	}
	return segEdge{
		follower: prev.follower + unzigzag(df),
		at:       prev.at + unzigzag(da),
		seq:      uint64(int64(prev.seq) + unzigzag(ds)),
	}, n1 + n2 + n3, true
}

// errEdgeStream reports a snapshot edge stream that is not one
// appendEdgeStream writes: malformed or non-minimal varints, a short or
// long stream, or edges that break the list's invariants.
var errEdgeStream = errors.New("malformed edge stream")

// appendEdgeStream appends the view's live edges in the snapshot wire form:
// every sealed block's bytes as they are, then the tail encoded the same
// way, its delta chain restarting from the zero edge as every block's does.
// Blocks are canonical, so the bytes are a function of the live edges
// alone, whatever store wrote them.
func appendEdgeStream(dst []byte, v *edgeView) []byte {
	for i := range v.blocks {
		dst = append(dst, v.blocks[i].data...)
	}
	var prev segEdge
	for _, e := range v.tail {
		dst = appendSegEdge(dst, prev, e)
		prev = e
	}
	return dst
}

// loadEdgeStream is the snapshot reader's inverse of appendEdgeStream: it
// decodes exactly count edges from data, each once, and returns them as a
// view that adopts every full block's bytes in place (data is retained) and
// holds the rest as its tail. Nothing is re-sealed, so it accepts only what
// sealBlock produces — minimal varints, a chain restarting from the zero
// edge every edgeBlockLen edges, no byte left over — and only a valid list:
// followers in 1..maxFollower, times from 0 and never going back, seqs
// strictly increasing. Anything else, arbitrary bytes included, fails with
// errEdgeStream and never panics, the property FuzzEdgeSegmentDecode pins.
func loadEdgeStream(data []byte, count int, maxFollower int64) (*edgeView, error) {
	// An edge takes at least three bytes, which bounds what count may
	// allocate before a byte is read.
	if count < 0 || count > len(data)/3 {
		return nil, errEdgeStream
	}
	full := count / edgeBlockLen
	v := &edgeView{blocks: make([]edgeBlock, 0, full), total: count, ever: true}
	if rest := count - full*edgeBlockLen; rest > 0 {
		v.tail = make([]segEdge, 0, rest)
	}
	var prev, last segEdge // chain base (the zero edge at each block start), previous edge
	start, off := 0, 0
	var firstSeq uint64
	for i := 0; i < count; i++ {
		k := i % edgeBlockLen
		if k == 0 {
			prev, start = segEdge{}, off
		}
		e, n, ok := readSegEdge(data[off:], prev)
		if !ok || e.follower < 1 || e.follower > maxFollower || e.at < last.at || e.seq <= last.seq {
			return nil, errEdgeStream
		}
		off += n
		prev, last = e, e
		switch {
		case i >= full*edgeBlockLen:
			v.tail = append(v.tail, e)
		case k == 0:
			firstSeq = e.seq
		case k == edgeBlockLen-1:
			v.blocks = append(v.blocks, edgeBlock{data: data[start:off:off], firstSeq: firstSeq, lastSeq: e.seq, lastAt: e.at})
		}
	}
	if off != len(data) {
		return nil, errEdgeStream
	}
	return v, nil
}

// newestSeq returns the newest live edge's seq, or 0 with no edge live.
func (v *edgeView) newestSeq() uint64 {
	if n := len(v.tail); n > 0 {
		return v.tail[n-1].seq
	}
	if n := len(v.blocks); n > 0 {
		return v.blocks[n-1].lastSeq
	}
	return 0
}
