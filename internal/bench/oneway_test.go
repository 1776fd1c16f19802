package bench

import (
	"reflect"
	"testing"

	"pardis/examples/pipeline/poomagen"
	"pardis/examples/pipeline/pstlgen"
	"pardis/examples/pipeline/vizgen"
	"pardis/internal/bench/benchidl"
	"pardis/internal/core"
)

// TestOnewayVariantChangesOneThing holds AblationOneway to what it claims to
// measure: benchidl's visualizer and field_operations are pipeline.idl's,
// with every operation declared oneway and nothing else changed — names,
// parameters, their typecodes and distributions, results, idempotency.
func TestOnewayVariantChangesOneThing(t *testing.T) {
	for _, c := range []struct{ twoWay, oneway *core.InterfaceDef }{
		{vizgen.VisualizerIDL(), benchidl.VisualizerIDL()},
		{vizgen.FieldOperationsIDL(), benchidl.FieldOperationsIDL()},
	} {
		for _, op := range c.twoWay.Ops {
			if op.Oneway {
				t.Errorf("vizgen %s.%s is oneway; the figure's pipeline is two-way", c.twoWay.Name, op.Name)
			}
		}
		for i := range c.oneway.Ops {
			op := &c.oneway.Ops[i]
			if !op.Oneway {
				t.Errorf("benchidl %s.%s is not oneway", c.oneway.Name, op.Name)
			}
			op.Oneway = false
		}
		if !reflect.DeepEqual(c.twoWay, c.oneway) {
			t.Errorf("benchidl's %s differs from vizgen's in more than oneway:\n vizgen   %+v\n benchidl %+v",
				c.twoWay.Name, *c.twoWay, *c.oneway)
		}
	}
}

// TestMappingsShareOneTable holds the pipeline to the three mappings of
// pipeline.idl agreeing on the wire: internal/apps/pipeline serves a
// pstlgen skeleton to clients that bind through vizgen, and poomagen is the
// same interfaces mapped to fields. The tables may differ in nothing.
func TestMappingsShareOneTable(t *testing.T) {
	for _, c := range []struct {
		name               string
		plain, pstl, pooma *core.InterfaceDef
	}{
		{"visualizer", vizgen.VisualizerIDL(), pstlgen.VisualizerIDL(), poomagen.VisualizerIDL()},
		{"field_operations", vizgen.FieldOperationsIDL(), pstlgen.FieldOperationsIDL(), poomagen.FieldOperationsIDL()},
	} {
		if !reflect.DeepEqual(c.plain, c.pstl) {
			t.Errorf("%s: pstlgen's table differs from vizgen's:\n vizgen  %+v\n pstlgen %+v", c.name, *c.plain, *c.pstl)
		}
		if !reflect.DeepEqual(c.plain, c.pooma) {
			t.Errorf("%s: poomagen's table differs from vizgen's:\n vizgen   %+v\n poomagen %+v", c.name, *c.plain, *c.pooma)
		}
	}
}
