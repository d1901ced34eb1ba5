package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// TestTablesGolden regenerates Tables I–III at the default seed and diffs
// them against the committed output, serially and through the auditd
// scheduler: a store, encoder, sampling or scheduling rewrite that moves a
// digit of the paper's tables has to say so by updating
// testdata/tables.golden (`go run ./cmd/experiments -table1 -table2 -table3
// > cmd/experiments/testdata/tables.golden`), and no pool size may print a
// different table than the serial loop.
func TestTablesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		args []string
	}{
		{"serial", []string{"-table1", "-table2", "-table3"}},
		{"concurrency-4", []string{"-table1", "-table2", "-table3", "-concurrency", "4"}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(leg.args, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), golden) {
				t.Fatalf("tables differ from testdata/tables.golden:\n%s", firstDifference(out.Bytes(), golden))
			}
		})
	}
}

// firstDifference shows the first line on which got and want part ways.
func firstDifference(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "no differing line (trailing bytes?)"
}
