package exp

import (
	"reflect"
	"runtime"
	"testing"
)

// TestParallelForCoversEachIndexOnce: every index runs exactly once for any
// worker count, including more workers than items and none at all.
func TestParallelForCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{0, 1, 3, 16} {
			hits := make([]int, n)
			parallelFor(n, workers, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestFigure7AblationNoCScalingAcrossGOMAXPROCS: the experiments that fan
// seeded simulations out over a GOMAXPROCS-bounded pool (and scaling, whose
// series share one communicator per size) return deeply equal results
// serially and with four workers.
func TestFigure7AblationNoCScalingAcrossGOMAXPROCS(t *testing.T) {
	runAll := func(procs int) []Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return []Result{Figure7(), AblationNoC(), Scaling()}
	}
	serial, wide := runAll(1), runAll(4)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], wide[i]) {
			t.Errorf("%T differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", serial[i], serial[i].Render(), wide[i].Render())
		}
	}
}
