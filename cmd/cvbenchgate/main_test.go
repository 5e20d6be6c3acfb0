package main

import (
	"strings"
	"testing"
)

// TestGateMatchesAcrossGOMAXPROCS feeds output formatted as `go test -cpu 2`
// and `-cpu 1,2` print it: a baseline recorded on one core count must match,
// and every -cpu arm must be held to the limit.
func TestGateMatchesAcrossGOMAXPROCS(t *testing.T) {
	const out = `goos: linux
BenchmarkConcurrentSubmit/workers=1-2         	   50000	     23204 ns/op	     43097 jobs/sec	    7563 B/op	      43 allocs/op
BenchmarkConcurrentSubmit/workers=16-2        	   50000	     20408 ns/op	     49001 jobs/sec	    7572 B/op	      44 allocs/op
BenchmarkExecuteVectorized/batch              	     120	   8300000 ns/op	 5000000 B/op	   12000 allocs/op
BenchmarkExecuteVectorized/batch-2            	     110	   9800000 ns/op	 5000000 B/op	   12001 allocs/op
PASS
`
	cur, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 4 || cur[0].Name != "BenchmarkConcurrentSubmit/workers=1-2" || cur[0].AllocsPerOp != 43 {
		t.Fatalf("parsed %+v", cur)
	}
	base := []Result{
		{Name: "BenchmarkConcurrentSubmit/workers=1", AllocsPerOp: 43, BytesPerOp: 7500, HasAllocs: true},
		{Name: "BenchmarkConcurrentSubmit/workers=16-4", AllocsPerOp: 43, BytesPerOp: 7500, HasAllocs: true},
		{Name: "BenchmarkExecuteVectorized/batch", AllocsPerOp: 12000, BytesPerOp: 5000000, HasAllocs: true},
	}
	if f := gateAllocs(base, cur, "BenchmarkConcurrentSubmit", 0.10); len(f) != 0 {
		t.Errorf("gate failed across core counts: %v", f)
	}
	if f := gateAllocs(base, cur, "BenchmarkExecuteVectorized", 0); len(f) != 1 || !strings.Contains(f[0], "batch-2") {
		t.Errorf("want exactly the -cpu 2 arm over the limit, got %v", f)
	}
	// Bytes per op are held to the same margin as the count: the same run
	// against a baseline that allocated 10 % fewer bytes fails on both arms.
	base[2].BytesPerOp = 4500000
	if f := gateAllocs(base, cur, "BenchmarkExecuteVectorized", 0.10); len(f) != 2 || !strings.Contains(f[0], "B/op") || !strings.Contains(f[1], "B/op") {
		t.Errorf("want both arms over the B/op limit, got %v", f)
	}
	base = append(base, Result{Name: "BenchmarkConcurrentSubmit/workers=4", AllocsPerOp: 43, HasAllocs: true})
	if f := gateAllocs(base, cur, "BenchmarkConcurrentSubmit", 0.10); len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Errorf("want one missing-arm failure, got %v", f)
	}
}
