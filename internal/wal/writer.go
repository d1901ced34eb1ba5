package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fakeproject/internal/metrics"
)

// Segment framing.
var walMagic = [8]byte{'F', 'P', 'W', 'A', 'L', '0', '0', '1'}

const (
	// formatVersion is the record-format version stamped into every segment
	// header. Bump it when the payload encoding changes incompatibly.
	formatVersion = 1
	// headerLen is magic + uint32 format version + uint64 start LSN.
	headerLen = 8 + 4 + 8
	// frameLen is the per-record prefix: uint32 payload length + uint32 CRC.
	frameLen = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var errWriterClosed = errors.New("wal: writer closed")

func segmentName(start uint64) string { return fmt.Sprintf("wal-%016x.log", start) }
func snapshotName(lsn uint64) string  { return fmt.Sprintf("snap-%016x.gob", lsn) }

func parseSegmentName(name string) (start uint64, ok bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &n); err != nil || segmentName(n) != name {
		return 0, false
	}
	return n, true
}

func parseSnapshotName(name string) (lsn uint64, ok bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "snap-%016x.gob", &n); err != nil || snapshotName(n) != name {
		return 0, false
	}
	return n, true
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writer is the append side of the log: appends go into a buffered writer
// under a short mutex; making them durable is the committer goroutine's
// job, off the append path, so a slow fsync stalls only the ops waiting on
// it (group commit) and never blocks the buffer from accepting more.
//
// Lock order: the store lock (Store.mu) is always taken before
// writer.mu — appends arrive from inside store critical sections — and
// nothing under writer.mu ever calls into the store, so the order is
// acyclic. sync() is called only after store locks are released.
type writer struct {
	dir       string
	policy    Policy
	syncEvery time.Duration

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when durable advances or err sets
	f        *os.File
	bw       *bufio.Writer
	gen      uint64 // bumped by rotate; a committer fsync that straddles a rotation detects it here
	appended uint64 // LSN of the newest buffered record
	durable  uint64 // LSN through which records are flushed (and fsynced, except under PolicyOff)
	err      error  // sticky fatal error
	closed   bool

	wake chan struct{} // nudges the committer (PolicyAlways)
	done chan struct{}
	wg   sync.WaitGroup

	// Monotone mirrors readable without mu, for metrics.
	records atomic.Uint64 // == appended
	bytes   atomic.Uint64 // framed bytes appended since process start
	fsyncs  atomic.Uint64
	// fsyncHist times every data fsync (group commits, rotations, close).
	fsyncHist metrics.Histogram
}

// createSegment creates the segment whose first record will be start,
// writes its header durably, and syncs the directory. A pre-existing file
// of the same name can only be a previous boot's segment that recovery
// consumed zero records from (otherwise the next segment would start
// higher), so replacing it discards nothing acknowledged.
func createSegment(dir string, start uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentName(start))
	if _, err := os.Stat(path); err == nil {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("wal: replacing empty segment: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:], walMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[12:], start)
	if _, err := f.Write(hdr[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return f, nil
}

// openWriter starts appending after lastLSN, in a fresh segment.
func openWriter(dir string, lastLSN uint64, policy Policy, syncEvery time.Duration) (*writer, error) {
	f, err := createSegment(dir, lastLSN+1)
	if err != nil {
		return nil, err
	}
	w := &writer{
		dir:       dir,
		policy:    policy,
		syncEvery: syncEvery,
		f:         f,
		bw:        bufio.NewWriterSize(f, 1<<16),
		appended:  lastLSN,
		durable:   lastLSN,
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	w.records.Store(lastLSN)
	w.wg.Add(1)
	if policy == PolicyAlways {
		go w.commitLoop()
	} else {
		go w.tickLoop()
	}
	return w, nil
}

// append frames payload into the buffer and returns its LSN. The payload is
// copied before return, so callers may reuse the buffer.
func (w *writer) append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > maxPayload {
		return 0, fmt.Errorf("wal: record payload of %d bytes out of range", len(payload))
	}
	var frame [frameLen]byte
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))

	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	if w.closed {
		w.mu.Unlock()
		return 0, errWriterClosed
	}
	if _, err := w.bw.Write(frame[:]); err != nil {
		w.failLocked(err)
		w.mu.Unlock()
		return 0, err
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.failLocked(err)
		w.mu.Unlock()
		return 0, err
	}
	w.appended++
	lsn := w.appended
	w.records.Store(lsn)
	w.bytes.Add(uint64(len(payload) + frameLen))
	w.mu.Unlock()

	if w.policy == PolicyAlways {
		select {
		case w.wake <- struct{}{}:
		default: // a commit pass is already pending; it will pick this record up
		}
	}
	return lsn, nil
}

// sync blocks until lsn is durable. Under PolicyInterval and PolicyOff
// the ack contract is "buffered", so sync returns immediately.
func (w *writer) sync(lsn uint64) error {
	if w.policy != PolicyAlways {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < lsn && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.durable < lsn {
		return errWriterClosed
	}
	return nil
}

// failLocked records a fatal writer error and wakes every waiter. Caller
// holds w.mu.
func (w *writer) failLocked(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("wal: writer failed: %w", err)
	}
	w.cond.Broadcast()
}

func (w *writer) commitLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		case <-w.wake:
			w.flush(true)
		}
	}
}

func (w *writer) tickLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			w.flush(w.policy == PolicyInterval)
		}
	}
}

// flush pushes everything buffered to the OS and, when fsync is set, to
// stable storage. The fsync itself runs outside w.mu — this is the group
// commit: appends keep landing in the buffer while the disk syncs, and the
// next flush commits them all in one sync. A rotation that lands mid-fsync
// is detected by the generation counter; the rotation fsynced the sealed
// segment itself, so the stale result (often "file already closed") is
// discarded.
func (w *writer) flush(fsync bool) {
	w.mu.Lock()
	if w.err != nil || w.closed {
		w.mu.Unlock()
		return
	}
	target := w.appended
	if target == w.durable {
		w.mu.Unlock()
		return
	}
	if err := w.bw.Flush(); err != nil {
		w.failLocked(err)
		w.mu.Unlock()
		return
	}
	if !fsync {
		w.durable = target
		w.cond.Broadcast()
		w.mu.Unlock()
		return
	}
	f, gen := w.f, w.gen
	w.mu.Unlock()

	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)

	w.mu.Lock()
	switch {
	case gen != w.gen:
		// Rotated while syncing; the rotation already made target durable.
	case err != nil:
		w.failLocked(err)
	default:
		if target > w.durable {
			w.durable = target
		}
		w.fsyncs.Add(1)
		w.fsyncHist.Record(elapsed)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// rotate seals the current segment — flush, fsync, close — and opens a new
// one whose first record will be the next LSN, returning the LSN of the
// last sealed record. Compaction calls it with the whole store locked
// (WriteSnapshotWith's cut hook), so no append can interleave with the
// switch; appends blocked on w.mu land in the new segment.
func (w *writer) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errWriterClosed
	}
	if err := w.bw.Flush(); err != nil {
		w.failLocked(err)
		return 0, err
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.failLocked(err)
		return 0, err
	}
	w.fsyncs.Add(1)
	w.fsyncHist.Record(time.Since(start))
	if err := w.f.Close(); err != nil {
		w.failLocked(err)
		return 0, err
	}
	cut := w.appended
	f, err := createSegment(w.dir, cut+1)
	if err != nil {
		w.failLocked(err)
		return 0, err
	}
	w.f = f
	w.bw.Reset(f)
	w.gen++
	if cut > w.durable {
		w.durable = cut
	}
	w.cond.Broadcast()
	return cut, nil
}

// close stops the committer, flushes and fsyncs the tail under every
// policy (a clean shutdown is always durable), and closes the segment.
func (w *writer) close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("wal: closing writer: %w", err)
		}
	}
	if w.err == nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: closing writer: %w", err)
		}
	}
	if cerr := w.f.Close(); cerr != nil && w.err == nil {
		w.err = fmt.Errorf("wal: closing writer: %w", cerr)
	}
	if w.err == nil {
		w.durable = w.appended
	}
	w.cond.Broadcast()
	return w.err
}
