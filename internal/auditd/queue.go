package auditd

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

// Queue errors.
var (
	// ErrQueueFull reports backpressure: the pending queue is at capacity.
	ErrQueueFull = errors.New("auditd: queue full")
	// ErrClosed reports a submission to a service that is shutting down.
	ErrClosed = errors.New("auditd: service closed")
	// ErrBadSpec reports an invalid job specification.
	ErrBadSpec = errors.New("auditd: invalid job spec")
	// ErrUnknownJob reports a lookup of a job ID the service never issued
	// (or has evicted).
	ErrUnknownJob = errors.New("auditd: unknown job")
)

// queueItem orders jobs by (priority desc, arrival seq asc). priority is
// copied out of the spec at push time (and bumped by urgent duplicates) so
// the heap never mutates the job itself — job fields are guarded by the
// service mutex, not the queue's.
type queueItem struct {
	job      *job
	seq      uint64
	priority int
}

type jobHeap []queueItem

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(queueItem)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = queueItem{}
	*h = old[:n-1]
	return item
}

// jobQueue is a bounded priority queue with deduplication of equivalent
// pending/running requests. It is safe for concurrent use.
type jobQueue struct {
	mu     sync.Mutex
	heap   jobHeap
	cap    int
	seq    uint64
	closed bool
	// inflight maps dedupKey → job for every job that is queued or
	// running, so equivalent submissions coalesce onto one analysis.
	inflight map[string]*job
	// wake signals waiting workers that an item arrived or the queue
	// closed.
	wake chan struct{}
}

func newJobQueue(capacity int) *jobQueue {
	return &jobQueue{
		cap:      capacity,
		inflight: make(map[string]*job),
		wake:     make(chan struct{}, 1),
	}
}

func (q *jobQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// push enqueues j, or returns the already-inflight equivalent job (dedup).
// The boolean reports whether j was actually enqueued.
func (q *jobQueue) push(j *job) (*job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, ErrClosed
	}
	key := j.spec.dedupKey()
	if existing, ok := q.inflight[key]; ok {
		// Coalesce, and let an urgent duplicate raise the original's
		// effective priority (tracked on the heap item, never on the job).
		for i := range q.heap {
			if q.heap[i].job == existing {
				if j.spec.Priority > q.heap[i].priority {
					q.heap[i].priority = j.spec.Priority
					heap.Fix(&q.heap, i)
				}
				break
			}
		}
		return existing, false, nil
	}
	if q.cap > 0 && len(q.heap) >= q.cap {
		return nil, false, ErrQueueFull
	}
	q.seq++
	heap.Push(&q.heap, queueItem{job: j, seq: q.seq, priority: j.spec.Priority})
	q.inflight[key] = j
	q.signal()
	return j, true, nil
}

// pop removes the highest-priority job, blocking until one is available,
// the queue closes (nil, false), or ctx is cancelled (nil, false).
func (q *jobQueue) pop(ctx context.Context) (*job, bool) {
	for {
		q.mu.Lock()
		if len(q.heap) > 0 {
			item := heap.Pop(&q.heap).(queueItem)
			// Leave the dedup entry: the job is now running and
			// equivalent submissions should still coalesce. The worker
			// releases it on completion via release().
			q.mu.Unlock()
			q.signal() // other workers may still have items to take
			return item.job, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			q.signal() // cascade shutdown to the next blocked worker
			return nil, false
		}
		select {
		case <-q.wake:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// release drops j's dedup entry once it reaches a terminal state.
func (q *jobQueue) release(j *job) {
	q.mu.Lock()
	if q.inflight[j.spec.dedupKey()] == j {
		delete(q.inflight, j.spec.dedupKey())
	}
	q.mu.Unlock()
}

// drain empties the heap, returning the jobs that never ran (used by a
// forced shutdown to finalise them so their waiters unblock).
func (q *jobQueue) drain() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	abandoned := make([]*job, 0, len(q.heap))
	for len(q.heap) > 0 {
		item := heap.Pop(&q.heap).(queueItem)
		abandoned = append(abandoned, item.job)
		if q.inflight[item.job.spec.dedupKey()] == item.job {
			delete(q.inflight, item.job.spec.dedupKey())
		}
	}
	return abandoned
}

// close stops intake; queued jobs remain poppable so workers can drain.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	// Wake every blocked worker; each pop re-signals, cascading the
	// shutdown through the pool.
	q.signal()
}

func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}
