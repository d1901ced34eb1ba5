package twitterapi

import (
	"fmt"

	"fakeproject/internal/twitter"
)

// Follower cursors are opaque on the wire, exactly like the real API's:
// consumers must treat the int64 as a token to echo back, not an offset to
// do arithmetic on. Internally a cursor carries the sequence number of the
// next follow edge to serve (the anchor a resumed crawl lands on, immune
// to churn shifting positions) in its low bits, plus a short checksum
// keyed on the target in its high bits. The checksum turns fabricated or
// cross-target cursors into ErrBadCursor instead of silently serving an
// unrelated page; a *stale* cursor — one whose anchored edge has since
// been purged — still decodes fine and resolves to the next older
// surviving edge, which is what keeps long crawls alive under churn.
//
// Layout (63 usable bits; the sign bit stays 0 so encoded cursors never
// collide with the CursorFirst/CursorDone sentinels):
//
//	bits  0..47  edge sequence number (2^48 edges per target)
//	bits 48..62  checksum over (target, seq)
const (
	cursorSeqBits = 48
	cursorSeqMask = (uint64(1) << cursorSeqBits) - 1
	cursorSumMask = (uint64(1) << 15) - 1
)

// cursorSum mixes (target, seq) into the 15-bit checksum field.
func cursorSum(target twitter.UserID, seq uint64) uint64 {
	return mix64(seq^uint64(target)*0x9e3779b97f4a7c15) & cursorSumMask
}

// encodeCursor packs a follow-edge seq into an opaque wire cursor. seq must
// be non-zero (0 terminates pagination and is encoded as CursorDone by the
// caller) and fit the 48-bit field.
func encodeCursor(target twitter.UserID, seq uint64) int64 {
	return int64(cursorSum(target, seq)<<cursorSeqBits | seq&cursorSeqMask)
}

// decodeCursor validates an opaque wire cursor for target and recovers the
// anchored seq. Sentinels are handled by the caller; everything that is not
// a well-formed cursor minted for this target is ErrBadCursor.
func decodeCursor(target twitter.UserID, cursor int64) (uint64, error) {
	if cursor <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadCursor, cursor)
	}
	seq := uint64(cursor) & cursorSeqMask
	if seq == 0 || uint64(cursor)>>cursorSeqBits != cursorSum(target, seq) {
		return 0, fmt.Errorf("%w: %d", ErrBadCursor, cursor)
	}
	return seq, nil
}

// followerAnchor turns a followers/ids cursor into the store's page anchor:
// SeqNewest for CursorFirst, the seq a minted token carries otherwise.
func followerAnchor(target twitter.UserID, cursor int64) (uint64, error) {
	if cursor == CursorFirst {
		return twitter.SeqNewest, nil
	}
	return decodeCursor(target, cursor)
}

// followerCursor is the NextCursor of a page whose next anchor is nextSeq:
// CursorDone once the page reached the oldest surviving edge.
func followerCursor(target twitter.UserID, nextSeq uint64) int64 {
	if nextSeq == 0 {
		return CursorDone
	}
	return encodeCursor(target, nextSeq)
}
