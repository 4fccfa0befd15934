package main

import (
	"phloem/internal/graph"
	"phloem/internal/matrix"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// The generators and sizes below are those of workloads.Benchmarks(ScaleTest);
// every generator seed is offset by the benchmark seed, so seed 0 rebuilds
// the suite's inputs exactly (inputs_test.go pins this). The program under
// test only ever sees the bindings these inputs produce.

// radiiSampleSeed is the suite's seed for Radii's sampled BFS sources.
const radiiSampleSeed = 99

// family is one benchmark application with the inputs the workloads use.
type family struct {
	name   string
	source string
	train  []*workloads.Input
	// simulate is the input the simulate workload runs; largest is the
	// family's last (largest) test input, the one BENCH_native.json uses.
	simulate, largest *workloads.Input
}

func graphInput(fam, name string, g *graph.CSR, seed int64) *workloads.Input {
	in := &workloads.Input{Name: name}
	switch fam {
	case "BFS":
		in.Bind = func() pipeline.Bindings { return workloads.BFSBindings(g, 0) }
		in.Verify = func(inst *pipeline.Instance) error { return workloads.BFSVerify(inst, g, 0) }
	case "CC":
		in.Bind = func() pipeline.Bindings { return workloads.CCBindings(g) }
		in.Verify = func(inst *pipeline.Instance) error { return workloads.CCVerify(inst, g) }
	case "PRD":
		in.Bind = func() pipeline.Bindings { return workloads.PRDBindings(g) }
		in.Verify = func(inst *pipeline.Instance) error { return workloads.PRDVerify(inst, g) }
	case "Radii":
		s := radiiSampleSeed + seed
		in.Bind = func() pipeline.Bindings { return workloads.RadiiBindings(g, s) }
		in.Verify = func(inst *pipeline.Instance) error { return workloads.RadiiVerify(inst, g, s) }
	}
	return in
}

func spmmInput(name string, a *matrix.CSR) *workloads.Input {
	bt := a.Transpose(a.Name + "T")
	return &workloads.Input{
		Name:   name,
		Bind:   func() pipeline.Bindings { return workloads.SpMMBindings(a, bt) },
		Verify: func(inst *pipeline.Instance) error { return workloads.SpMMVerify(inst, a, bt) },
	}
}

// suiteGraphs are the graph inputs of workloads.graphSuite at test scale.
type suiteGraphs struct {
	internet, roadNY, hugetrace, roadUSA *graph.CSR
}

func newSuiteGraphs(seed int64) suiteGraphs {
	return suiteGraphs{
		internet:  graph.PowerLaw("internet", 800, 2, 11+seed),
		roadNY:    graph.Grid("road-ny", 30, 30, 12+seed),
		hugetrace: graph.Trace("hugetrace", 60, 24, 22+seed),
		roadUSA:   graph.Grid("road-usa", 50, 50, 25+seed),
	}
}

// graphFamilies builds BFS, CC, PRD and Radii. Families share the graph
// structures, which every workload treats as read-only.
func graphFamilies(seed int64) []*family {
	g := newSuiteGraphs(seed)
	var out []*family
	for _, f := range []struct{ name, src string }{
		{"BFS", workloads.BFSSource},
		{"CC", workloads.CCSource},
		{"PRD", workloads.PRDSource},
		{"Radii", workloads.RadiiSource},
	} {
		fam := &family{
			name:   f.name,
			source: f.src,
			train: []*workloads.Input{
				graphInput(f.name, "internet", g.internet, seed),
				graphInput(f.name, "road-ny", g.roadNY, seed),
			},
			largest: graphInput(f.name, "road-usa", g.roadUSA, seed),
		}
		fam.simulate = fam.largest
		if f.name == "Radii" {
			// Radii on road-usa alone outweighs the other four simulations
			// together; hugetrace keeps the families balanced.
			fam.simulate = graphInput(f.name, "hugetrace", g.hugetrace, seed)
		}
		out = append(out, fam)
	}
	return out
}

// spmmFamily builds SpMM with the suite's 2cubes and rma10 test matrices.
// It has no training inputs: the autotune workload leaves SpMM out.
func spmmFamily(seed int64) *family {
	return &family{
		name:     "SpMM",
		source:   workloads.SpMMSource,
		simulate: spmmInput("2cubes", matrix.Banded("2cubes", 220, 8, 200, 44+seed)),
		largest:  spmmInput("rma10", matrix.Banded("rma10", 160, 25, 60, 45+seed)),
	}
}
