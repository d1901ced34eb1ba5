package loadgen

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// Format writes a human-readable summary of one mix run.
func (r Result) Format(w io.Writer) {
	fmt.Fprintf(w, "mix %s: %d requests in %v (%d offered, %d shed)\n",
		r.Mix, r.TotalCount(), r.Duration.Round(time.Millisecond), r.Offered, r.Shed)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  endpoint\trps\tp50\tp90\tp99\tp999\tmax\terr\t429")
	for _, e := range r.Endpoints {
		fmt.Fprintf(tw, "  %s\t%.0f\t%v\t%v\t%v\t%v\t%v\t%d\t%d\n",
			e.Endpoint, e.Throughput,
			round(e.P50), round(e.P90), round(e.P99), round(e.P999), round(e.Max),
			e.Errors, e.Throttled)
	}
	tw.Flush()
	for _, e := range r.Endpoints {
		for _, msg := range e.ErrorSamples {
			fmt.Fprintf(w, "  ! %s: %s\n", e.Endpoint, msg)
		}
	}
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
