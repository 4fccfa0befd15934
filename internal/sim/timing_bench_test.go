package sim_test

import (
	"reflect"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// recordTrace runs the functional phase of fam's static pipeline on its
// smallest test input and returns the machine with its trace.
func recordTrace(tb testing.TB, fam string) (*sim.Machine, *sim.TraceSet) {
	tb.Helper()
	b, err := workloads.ByName(workloads.ScaleTest, fam)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := arch.DefaultConfig(1)
	inst, err := pipeline.Instantiate(compileFamily(tb, b, false, cfg), cfg, smallest(tb, b).Bind())
	if err != nil {
		tb.Fatalf("instantiate: %v", err)
	}
	ts, err := inst.Machine.RunFunctional()
	if err != nil {
		tb.Fatalf("functional: %v", err)
	}
	return inst.Machine, ts
}

// TestRunTimingRepeatable: replaying one TraceSet twice gives identical
// Stats, so the timing benchmarks may reuse a single recorded trace.
func TestRunTimingRepeatable(t *testing.T) {
	for _, fam := range []string{"BFS", "PRD"} {
		m, ts := recordTrace(t, fam)
		first, err := m.RunTiming(ts)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		second, err := m.RunTiming(ts)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: replays differ:\nfirst:  %+v\nsecond: %+v", fam, first, second)
		}
	}
}

// benchmarkTiming measures the timing engine alone: one functional trace,
// replayed b.N times. Run with -benchmem for allocations.
func benchmarkTiming(b *testing.B, fam string) {
	m, ts := recordTrace(b, fam)
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		st, err := m.RunTiming(ts)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(cycles)/1e6/sec, "Mcycles/s")
	b.ReportMetric(float64(ts.Instructions)*float64(b.N)/sec, "uops/s")
}

func BenchmarkTimingBFS(b *testing.B)   { benchmarkTiming(b, "BFS") }
func BenchmarkTimingCC(b *testing.B)    { benchmarkTiming(b, "CC") }
func BenchmarkTimingPRD(b *testing.B)   { benchmarkTiming(b, "PRD") }
func BenchmarkTimingRadii(b *testing.B) { benchmarkTiming(b, "Radii") }
func BenchmarkTimingSpMM(b *testing.B)  { benchmarkTiming(b, "SpMM") }
