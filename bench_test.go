// Repository benchmarks: one testing.B benchmark per table and figure of
// the paper's evaluation (§6). Each benchmark regenerates its result and
// reports the headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. Sweeps use the -quick subset of the 2017
// suite (6 benchmarks) to keep wall-clock reasonable; cmd/lfbench runs the
// full versions. Suite construction and the shared full-suite simulation
// happen once, outside the timed b.N loops; repeated iterations are then
// served by the sim package's run-cache rather than re-simulating.
package loopfrog

import (
	"io"
	"testing"

	"loopfrog/internal/cpu"
	"loopfrog/internal/experiments"
	"loopfrog/internal/sim"
	"loopfrog/internal/telemetry"
	"loopfrog/internal/workloads"
)

func quickSuite() []*workloads.Benchmark {
	keep := map[string]bool{"mcf": true, "omnetpp": true, "x264": true, "leela": true, "imagick": true, "gcc": true}
	var out []*workloads.Benchmark
	for _, b := range workloads.CPU2017() {
		if keep[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

func BenchmarkFigure1(b *testing.B) {
	suite := quickSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(suite, []int{4, 6, 8, 10})
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(last.GeomeanIPC/first.GeomeanIPC, "ipc-scaling")
		b.ReportMetric(first.CommitUtil-last.CommitUtil, "util-drop")
	}
}

func BenchmarkFigure6CPU2017(b *testing.B) {
	suite := workloads.CPU2017()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, geo, err := experiments.Figure6(cpu.DefaultConfig(), suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(geo["cpu2017"]-1), "geomean-speedup-%")
	}
}

func BenchmarkFigure6CPU2006(b *testing.B) {
	suite := workloads.CPU2006()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, geo, err := experiments.Figure6(cpu.DefaultConfig(), suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(geo["cpu2006"]-1), "geomean-speedup-%")
	}
}

// run2017 runs the full 2017 suite on the default configuration once; the
// figure/table benchmarks that analyse suite results call it before their
// timed loop instead of re-simulating per iteration.
func run2017(b *testing.B) []*sim.Result {
	b.Helper()
	res, err := sim.RunSuite(cpu.DefaultConfig(), workloads.CPU2017())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFigure7(b *testing.B) {
	res := run2017(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure7(res, true)
		var ge2 float64
		for _, r := range rows {
			ge2 += r.FracGE2
		}
		if len(rows) > 0 {
			b.ReportMetric(100*ge2/float64(len(rows)), "avg-ge2-active-%")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	res := run2017(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure8(res, true)
		var fail float64
		for _, r := range rows {
			fail += r.SpecFail
		}
		if len(rows) > 0 {
			b.ReportMetric(100*fail/float64(len(rows)), "failed-spec-%")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	res := run2017(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(res)
		for _, r := range rows {
			if r.SubCategory == workloads.ClassBranchPref {
				b.ReportMetric(100*r.Fraction, "branch-prefetch-%")
			}
		}
	}
}

func BenchmarkPacking(b *testing.B) {
	suite := quickSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := experiments.Packing(suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(p.GeomeanWith-p.GeomeanWithout), "packing-pp")
		b.ReportMetric(p.MeanFactor, "mean-factor")
	}
}

func BenchmarkFigure9(b *testing.B) {
	suite := quickSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9(suite, []int{512, 2 << 10, 8 << 10, 32 << 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(rows[len(rows)-1].Geomean-rows[0].Geomean), "32k-vs-512B-pp")
	}
}

func BenchmarkFigure10(b *testing.B) {
	suite := quickSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(suite, []int{1, 2, 4, 8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(rows[2].Geomean-rows[len(rows)-1].Geomean), "4B-vs-line-pp")
	}
}

func BenchmarkAssociativity(b *testing.B) {
	suite := quickSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Associativity(suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(rows[0].Geomean-rows[2].Geomean), "full-vs-4way-pp")
	}
}

func BenchmarkGenerality(b *testing.B) {
	res := run2017(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, nonOMP := experiments.Generality(res)
		b.ReportMetric(100*(all-1), "all-%")
		b.ReportMetric(100*(nonOMP-1), "non-omp-%")
	}
}

func BenchmarkArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.AreaReport() == "" {
			b.Fatal("empty area report")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	res := run2017(b)
	var xs []float64
	for _, r := range res {
		xs = append(xs, r.Speedup())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Table3(sim.Geomean(xs)) == "" {
			b.Fatal("empty table 3")
		}
	}
}

// BenchmarkSimulatorThroughput reports raw single-core simulation speed, for
// profiling: it calls sim.Run directly, bypassing the harness and its cache.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench := workloads.ByName(workloads.CPU2017(), "leela")
	prog := bench.MustProgram()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := sim.Run(cpu.DefaultConfig(), prog)
		if err != nil {
			b.Fatal(err)
		}
		insts += st.ArchInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimulatorThroughputTelemetry is the telemetry-on counterpart: a
// full trace sink (events + commit-slot samples) streams to io.Discard while
// the same workload runs, so comparing insts/s against
// BenchmarkSimulatorThroughput measures the observability overhead. The
// BENCH_overhead.json record at the repo root is generated from this pair.
func BenchmarkSimulatorThroughputTelemetry(b *testing.B) {
	bench := workloads.ByName(workloads.CPU2017(), "leela")
	prog := bench.MustProgram()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := cpu.NewMachine(cpu.DefaultConfig(), prog)
		if err != nil {
			b.Fatal(err)
		}
		tr := telemetry.NewTrace(io.Discard)
		mt := telemetry.AttachMachine(m, tr, telemetry.DefaultSlotSampleInterval)
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		mt.Finish()
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
		insts += st.ArchInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}
