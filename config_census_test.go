package cloudviews_test

import (
	"reflect"
	"testing"

	"cloudviews"
	"cloudviews/internal/cluster"
	"cloudviews/internal/experiments"
	"cloudviews/internal/server"
)

// knobs counts the independently settable values reachable from a config
// type: struct fields are descended into, and every other exported field —
// scalar, func, slice, map, pointer, interface — counts as one.
func knobs(t reflect.Type) int {
	if t.Kind() != reflect.Struct {
		return 1
	}
	n := 0
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			n += knobs(f.Type)
		}
	}
	return n
}

// TestConfigCensus pins how many options the library, the server, its client,
// the cluster simulator and the paper's experiments expose, so a new one
// cannot arrive without a visible edit here. Run with -v to print the counts
// (CI records them beside the non-test line count).
func TestConfigCensus(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"cloudviews.Config", reflect.TypeOf(cloudviews.Config{}), 14},
		{"server.Config", reflect.TypeOf(server.Config{}), 10},
		{"server.Client", reflect.TypeOf(server.Client{}), 4},
		{"cluster.Config", reflect.TypeOf(cluster.Config{}), 2},
		{"experiments.ProductionConfig", reflect.TypeOf(experiments.ProductionConfig{}), 26},
	} {
		got := knobs(tc.typ)
		t.Logf("%s: %d knobs", tc.name, got)
		if got != tc.want {
			t.Errorf("%s has %d knobs, pinned at %d: if the change is meant, edit the pin and say why in CHANGES.md", tc.name, got, tc.want)
		}
	}
}
