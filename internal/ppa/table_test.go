package ppa

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// tableSpace is one space of the table differential and the stride its
// points are sampled at.
type tableSpace struct {
	space  hw.DesignSpace
	stride int
}

// tableSpaces returns the spaces the table differential covers under one
// catalogue: paper, fine, a custom AxBxCxD space, mix and mixfine. Mixfine is
// always strided; fine and mix are swept whole when full is set, and all
// three are strided 13 times wider otherwise.
func tableSpaces(t *testing.T, cat *hw.Catalogue, full bool) []tableSpace {
	t.Helper()
	var out []tableSpace
	for _, name := range []string{"paper", "fine", "5x3x4x2", "mix", "mixfine"} {
		s, err := hw.ParseSpaceWith(name, cat)
		if err != nil {
			t.Fatal(err)
		}
		stride := 1
		if name == "mixfine" {
			stride = 97
		}
		if !full && (name == "fine" || name == "mix" || name == "mixfine") {
			stride *= 13
		}
		out = append(out, tableSpace{s, stride})
	}
	return out
}

// sameSummary reports whether two summaries agree bit for bit in all four
// fields.
func sameSummary(a, b Summary) bool {
	return math.Float64bits(a.LatencyS) == math.Float64bits(b.LatencyS) &&
		math.Float64bits(a.DynamicPJ) == math.Float64bits(b.DynamicPJ) &&
		math.Float64bits(a.LeakagePJ) == math.Float64bits(b.LeakagePJ) &&
		math.Float64bits(a.AreaMM2) == math.Float64bits(b.AreaMM2)
}

// TestTableMatchesSummaryBitExact is the table path's differential: for all
// 19 networks, on paper, fine, a custom space, mix and strided mixfine, under
// the built-in and the mobile-7nm catalogue at Int8 and Int16, a Table's
// Summary, and its SummaryRange gathers in chunks of 512, 7 and 1 points
// that straddle runs, must equal ModelPlan.Summary on the same template and
// point in every bit of all four fields. Fine and mix are swept whole on the
// built-in catalogue at Int8 and sampled otherwise.
func TestTableMatchesSummaryBitExact(t *testing.T) {
	mobile, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, cat := range []*hw.Catalogue{nil, mobile} {
		for _, prec := range []hw.Precision{hw.Int8, hw.Int16} {
			for _, sp := range tableSpaces(t, cat, cat == nil && prec == hw.Int8) {
				for _, m := range allNetworks() {
					plan := NewModelPlan(m)
					tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{m})
					tmpl.Cat, tmpl.Precision = cat, prec
					tab := NewTable(plan, tmpl, sp.space)
					if tab == nil {
						t.Fatalf("%s: no table on %s", m.Name, sp.space.Desc())
					}
					n := sp.space.Len()
					wants := make([]Summary, 0, n/sp.stride+1)
					for k := 0; k < n; k += sp.stride {
						c := tmpl
						c.Point = sp.space.At(k)
						want, werr := plan.Summary(c, 1)
						got, gerr := tab.Summary(k)
						if werr != nil || gerr != nil {
							t.Fatalf("%s %v: summary error %v, table error %v", m.Name, c.Point, werr, gerr)
						}
						if !sameSummary(got, want) {
							t.Fatalf("%s %v %v on %s: table %+v != summary %+v",
								m.Name, prec, c.Point, sp.space.Desc(), got, want)
						}
						wants = append(wants, want)
						compared++
					}
					// Range gathers. The first chunk holds 5 points, so on
					// every space the chunks after it start off the NPool
					// grid and straddle runs. A chunk is gathered when it
					// holds a sampled point and the points gathered so far
					// stay within 8 per sampled point, which bounds the
					// work on strided spaces by their sampling.
					for _, size := range []int{512, 7, 1} {
						out, errs := make([]Summary, size), make([]error, size)
						gathered := 0
						for lo, hi := 0, min(5, size); lo < n; lo, hi = hi, min(hi+size, n) {
							first := (lo + sp.stride - 1) / sp.stride * sp.stride
							if first >= hi || gathered > 8*(hi/sp.stride) {
								continue
							}
							gathered += hi - lo
							tab.SummaryRange(lo, out[:hi-lo], errs[:hi-lo])
							for k := first; k < hi; k += sp.stride {
								if errs[k-lo] != nil {
									t.Fatalf("%s %v: range [%d, %d) error %v", m.Name, sp.space.At(k), lo, hi, errs[k-lo])
								}
								if got := out[k-lo]; !sameSummary(got, wants[k/sp.stride]) {
									t.Fatalf("%s %v %v on %s: range [%d, %d) %+v != summary %+v",
										m.Name, prec, sp.space.At(k), sp.space.Desc(), lo, hi, got, wants[k/sp.stride])
								}
								compared++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d summaries bit-identical", compared)
}

// TestTableErrorsMatchSummary pins the table's error contract: a template
// that fails the plan's coverage check (another model's unit set), or its
// mix check (a catalogue defining fewer chiplet types than the space's mixes
// instantiate), returns ModelPlan.Summary's own error at every point.
func TestTableErrorsMatchSummary(t *testing.T) {
	mobile, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	mobileMix, err := hw.ParseSpaceWith("mix", mobile)
	if err != nil {
		t.Fatal(err)
	}
	bert := workload.NewBERTBase()
	alexTmpl := hw.NewConfig(hw.Point{}, []*workload.Model{workload.NewAlexNet()})
	ownTmpl := hw.NewConfig(hw.Point{}, []*workload.Model{bert})
	cases := []struct {
		name  string
		tmpl  hw.Config
		space hw.DesignSpace
	}{
		{"coverage/paper", alexTmpl, hw.PaperSpace()},
		{"coverage/mix", alexTmpl, mobileMix},
		// The built-in catalogue defines three chiplet types; the mobile mix
		// space's mixes instantiate a fourth.
		{"mix-types", ownTmpl, mobileMix},
	}
	plan := NewModelPlan(bert)
	for _, tc := range cases {
		tab := NewTable(plan, tc.tmpl, tc.space)
		failed := 0
		for k := 0; k < tc.space.Len(); k += 7 {
			c := tc.tmpl
			c.Point = tc.space.At(k)
			want, werr := plan.Summary(c, 1)
			got, gerr := tab.Summary(k)
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("%s %v: table error %v, summary error %v", tc.name, c.Point, gerr, werr)
			}
			if !sameSummary(got, want) {
				t.Fatalf("%s %v: table %+v != summary %+v", tc.name, c.Point, got, want)
			}
			if werr != nil {
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("%s: no point failed the check", tc.name)
		}
	}
}

// BenchmarkTableSummaryPoint times the one-point gather, Table.Summary, the
// way search visits and a per-point table read it: every point of the fine
// space one at a time, for each of the 13 training networks. It reports the
// cost per gathered point.
func BenchmarkTableSummaryPoint(b *testing.B) {
	space := hw.FineSpace()
	var tabs []*Table
	for _, m := range workload.TrainingSet() {
		tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		tabs = append(tabs, NewTable(NewModelPlan(m), tmpl, space))
	}
	n := space.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, tab := range tabs {
			for k := 0; k < n; k++ {
				if _, err := tab.Summary(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*len(tabs)), "ns/point")
}
