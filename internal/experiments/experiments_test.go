package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/dataset"
)

// tinyProtocol keeps experiment smoke tests fast.
func tinyProtocol() Protocol {
	return Protocol{
		Scale:       0.003,
		Queries:     15,
		K:           5,
		Beams:       []int{6, 12},
		QueryMetric: ged.MetricFunc(ged.Hungarian),
		TrainEpochs: 2,
		Dim:         8,
		Seed:        1,
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, tinyProtocol())
	out := buf.String()
	for _, name := range []string{"AIDS", "LINUX", "PUBCHEM", "SYN"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table1 missing %s:\n%s", name, out)
		}
	}
}

func TestFig5Through7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: runs the full figure protocol end to end (~20s)")
	}
	p := tinyProtocol()
	env, err := NewEnv(p, dataset.AIDS(p.Scale))
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	for name, fn := range map[string]func(*Env) []Point{
		"fig5": Fig5, "fig6": Fig6, "fig7": Fig7,
	} {
		pts := fn(env)
		if len(pts) != 3*len(p.Beams) {
			t.Fatalf("%s: %d points; want %d", name, len(pts), 3*len(p.Beams))
		}
		methods := map[string]bool{}
		for _, pt := range pts {
			methods[pt.Method] = true
			if pt.Recall < 0 || pt.Recall > 1 {
				t.Fatalf("%s: recall out of range: %+v", name, pt)
			}
			if pt.QPS <= 0 || pt.AvgNDC <= 0 {
				t.Fatalf("%s: degenerate point %+v", name, pt)
			}
		}
		if len(methods) != 3 {
			t.Fatalf("%s: methods = %v", name, methods)
		}
	}
	// Fig 8 on the same env.
	row := Fig8(env)
	if row.Precision < 0 || row.Precision > 1 {
		t.Fatalf("fig8 precision %v", row.Precision)
	}
}

func TestFig12SpeedupShape(t *testing.T) {
	p := tinyProtocol()
	row := Fig12(p, dataset.AIDS(p.Scale), 16)
	if row.CGPerPair <= 0 || row.RawPerPair <= 0 || row.HAGPerPair <= 0 {
		t.Fatalf("degenerate timings: %+v", row)
	}
	// The CG cost (Theorem 3 units) must be below the raw cost; HAG only
	// trims aggregation edges.
	if row.CGCost >= row.RawCost {
		t.Fatalf("CG cost %d >= raw %d", row.CGCost, row.RawCost)
	}
	// Wall-clock CG speedup should be visible (>1x) on molecule graphs.
	if row.CGSpeedup <= 1 {
		t.Fatalf("no CG speedup: %+v", row)
	}
	// HAG cannot approach CG's speedup (it keeps all matmul rows).
	if row.HAGSpeedup >= row.CGSpeedup {
		t.Fatalf("HAG (%0.2fx) >= CG (%0.2fx)", row.HAGSpeedup, row.CGSpeedup)
	}
}

func TestRunUnknownName(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "nope", tinyProtocol()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTable1AndFig12(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "tab1", tinyProtocol()); err != nil {
		t.Fatalf("tab1: %v", err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}

func TestNamesListed(t *testing.T) {
	names := Names()
	if len(names) != 11 || names[0] != "tab1" || names[len(names)-1] != "all" {
		t.Fatalf("Names = %v", names)
	}
}
