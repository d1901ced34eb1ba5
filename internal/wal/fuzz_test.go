package wal

import (
	"bufio"
	"bytes"
	"testing"

	"fakeproject/internal/twitter"
)

// FuzzWALDecode throws arbitrary bytes at the whole read path — segment
// header, frame reader, record decoder — asserting it never panics and
// that malformed input is confined to a clean torn-tail stop or an error,
// never a record silently invented. Seeds cover a valid segment plus every
// record kind and the interesting corruptions (truncations, bit flips,
// huge claimed lengths).
func FuzzWALDecode(f *testing.F) {
	payloads := sampleRecords()
	full := buildSegment(1, payloads)
	f.Add(full)
	f.Add(full[:headerLen])
	f.Add(full[:headerLen+3]) // partial frame
	f.Add(full[:len(full)-1]) // truncated final payload
	f.Add([]byte{})
	f.Add([]byte("not a wal segment at all, but longer than a header"))
	flipped := append([]byte(nil), full...)
	flipped[headerLen+frameLen+2] ^= 0x10 // payload bit flip → CRC mismatch
	f.Add(flipped)
	badlen := append([]byte(nil), full...)
	badlen[headerLen] = 0xFF // absurd claimed length
	badlen[headerLen+1] = 0xFF
	badlen[headerLen+2] = 0xFF
	f.Add(badlen)
	for _, p := range payloads {
		f.Add(buildSegment(7, [][]byte{p}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		start, torn, err := parseSegmentHeader(br)
		if err != nil {
			return // rejected header: fine, as long as we got here without panicking
		}
		if torn {
			if len(data) >= headerLen {
				t.Fatalf("full %d-byte header reported torn", len(data))
			}
			return
		}
		_ = start
		var decoded int
		n, _, err := readRecords(br, func(rec record) error {
			decoded++
			// Anything that survived CRC + decode must re-encode; this keeps
			// the fuzzer honest about decoder laxity (a payload with two
			// different valid interpretations would show up here).
			switch rec.kind {
			case recCreate:
				encodeCreate(nil, rec.id, rec.params)
			case recFollow, recUnfollow:
				encodeEdge(nil, rec.kind, rec.target, rec.follower, rec.at)
			case recPurge:
				encodePurge(nil, rec.target, rec.batch, rec.at)
			case recTweet:
				encodeTweet(nil, rec.tweet)
			case recSetFriends:
				encodeSetFriends(nil, rec.id, rec.batch)
			default:
				return nil
			}
			return nil
		})
		if err == nil && uint64(decoded) != n {
			t.Fatalf("callback ran %d times for %d records", decoded, n)
		}
	})
}

// FuzzRecordDecode hits decodeRecord directly with raw payloads (no frame,
// no CRC gate), the harshest surface: every byte of the input is
// attacker-controlled.
func FuzzRecordDecode(f *testing.F) {
	for _, p := range sampleRecords() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{recPurge, 2, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if rec.kind < recCreate || rec.kind > recSetFriends {
			t.Fatalf("decode accepted kind %d", rec.kind)
		}
		// Bounded allocation: a decoded batch can never exceed one ID per
		// remaining payload byte.
		if len(rec.batch) > len(payload) {
			t.Fatalf("batch of %d IDs from %d payload bytes", len(rec.batch), len(payload))
		}
		_ = twitter.UserID(rec.id)
	})
}
