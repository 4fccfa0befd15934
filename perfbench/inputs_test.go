package main

import (
	"reflect"
	"testing"

	"phloem/internal/workloads"
)

// Seed 0 must rebuild exactly the suite's test-scale inputs, so the
// benchmark's numbers line up with the committed reports.
func TestSeedZeroIsTheSuite(t *testing.T) {
	suite := map[string]*workloads.Benchmark{}
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		suite[b.Name] = b
	}
	find := func(fam, name string) *workloads.Input {
		b := suite[fam]
		for _, in := range append(append([]*workloads.Input{}, b.Train...), b.Test...) {
			if in.Name == name {
				return in
			}
		}
		t.Fatalf("%s has no input %s", fam, name)
		return nil
	}
	for _, f := range allFamilies(0) {
		ins := append(append([]*workloads.Input{}, f.train...), f.simulate, f.largest)
		for _, in := range ins {
			if !reflect.DeepEqual(in.Bind(), find(f.name, in.Name).Bind()) {
				t.Errorf("%s/%s: bindings differ from the suite's", f.name, in.Name)
			}
		}
	}
	if got, want := allFamilies(0)[4].largest.Name, suite["SpMM"].Test[len(suite["SpMM"].Test)-1].Name; got != want {
		t.Errorf("SpMM largest input %s, suite's last test input %s", got, want)
	}
}

// Another seed must change every generated input.
func TestSeedOffsetsInputs(t *testing.T) {
	a, b := allFamilies(0), allFamilies(1)
	for i := range a {
		ins := func(f *family) []*workloads.Input {
			return append(append([]*workloads.Input{}, f.train...), f.simulate, f.largest)
		}
		x, y := ins(a[i]), ins(b[i])
		for j := range x {
			if reflect.DeepEqual(x[j].Bind(), y[j].Bind()) {
				t.Errorf("%s/%s: seed 1 gives the seed 0 bindings", a[i].name, x[j].Name)
			}
		}
	}
}
