package passinfo

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCorePassesAreClean is the CI wiring: every Describe call in
// internal/core must declare the keys its pass touches. A finding here
// means either the pass body or its PassInfo needs fixing — never this
// test.
func TestCorePassesAreClean(t *testing.T) {
	findings, err := CheckDir(filepath.Join("..", "..", "core"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestDetectsUndeclaredAccess runs the checker over a synthetic package
// exercising each detection path: direct accesses, package constants,
// followed helper functions with argument substitution, kernel methods
// with composite-literal field substitution, derived local keys, the
// NewEnv write exemption, the "*" wildcard, and the open-identifier
// skip rule (unresolvable keys are silent, not false positives).
func TestDetectsUndeclaredAccess(t *testing.T) {
	src := `package fake

const MetricTime = "time"

type PassInfo struct {
	Reads  []string
	Writes []string
	NewEnv bool
}

type Vert struct{}

func (v *Vert) Metric(k string) float64       { return 0 }
func (v *Vert) SetMetric(k string, x float64) {}
func (v *Vert) Attr(k string) string          { return "" }

func Describe(p, i any) any { return p }

type kern struct{ key string }

func (k *kern) Visit(v *Vert)                { _ = v.Metric(k.key) }
func (k *kern) Finish(v *Vert, other string) { _ = v.Metric(other) }

func helper(v *Vert, key string) { v.SetMetric(key, 1) }

var _ = Describe(func(v *Vert) {
	_ = v.Metric("declared")
	_ = v.Metric("undeclared")
	_ = v.Attr(MetricTime)
	helper(v, "hkey")
	_ = &kern{key: "kkey"}
	vec := "declared" + "_vec"
	_ = v.Metric(vec)
}, PassInfo{
	Reads: []string{"declared", "declared" + "_vec"},
})

var _ = Describe(func(v *Vert) {
	v.SetMetric("fresh", 1)
}, PassInfo{NewEnv: true})

var _ = Describe(func(v *Vert) {
	_ = v.Metric("anything")
}, PassInfo{Reads: []string{"*"}})
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fake.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range findings {
		got[f.Kind+" "+f.Key] = true
	}
	want := []string{
		`read "undeclared"`, // direct undeclared literal
		`read MetricTime`,   // package constant, not declared
		`write "hkey"`,      // via followed helper, arg substituted
		`read "kkey"`,       // via kernel method, field substituted
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing finding %q; got %v", w, findings)
		}
	}
	if len(findings) != len(want) {
		t.Errorf("want exactly %d findings, got %d: %v", len(want), len(findings), findings)
	}
	// The open-identifier skip: kern.Finish reads its own parameter, which
	// is unresolvable and must not be reported.
	for _, f := range findings {
		if f.Key == "other" {
			t.Errorf("open parameter reported as a finding: %s", f)
		}
	}
}

// TestDetectsAccumulatorColumnAndEnumerationAccess plants one undeclared
// access per accessor beyond the plain Metric/Attr/Vec and Set* forms:
// the accumulating writes, the Lookup* reads, the column reads, the column
// handles, the writable columns and the whole-element enumerations (which
// read "*"). Declared twins stay silent.
func TestDetectsAccumulatorColumnAndEnumerationAccess(t *testing.T) {
	src := `package fake

type PassInfo struct {
	Reads  []string
	Writes []string
}

type Vert struct{}

func (v *Vert) AddMetric(k string, x float64)         {}
func (v *Vert) AddVecAt(k string, i int, x float64)   {}
func (v *Vert) LookupMetric(k string) (float64, bool) { return 0, false }
func (v *Vert) LookupAttr(k string) (string, bool)    { return "", false }
func (v *Vert) LookupVec(k string) ([]float64, bool)  { return nil, false }
func (v *Vert) EachMetric(fn func(string, float64))   {}
func (v *Vert) NumAttrs() int                         { return 0 }

type Graph struct{}

func (g *Graph) VertexMetricColumn(k string) []float64 { return nil }
func (g *Graph) EdgeMetricColumn(k string) []float64   { return nil }
func (g *Graph) MetricColumn(k string) any              { return nil }
func (g *Graph) AttrColumn(k string) any                { return nil }
func (g *Graph) VecColumn(k string) any                 { return nil }
func (g *Graph) WritableVertexMetric(k string) ([]float64, []bool) { return nil, nil }
func (g *Graph) WritableVertexVec(k string) ([][]float64, []bool)  { return nil, nil }

func Describe(p, i any) any { return p }

var _ = Describe(func(v *Vert, g *Graph) {
	v.AddMetric("sum", 1)
	v.AddVecAt("vec", 0, 1)
	_, _ = v.LookupMetric("lm")
	_, _ = v.LookupAttr("la")
	_, _ = v.LookupVec("lv")
	_ = g.VertexMetricColumn("etime")
	_ = g.EdgeMetricColumn("wait")
	_ = g.MetricColumn("mcol")
	_ = g.AttrColumn("kind")
	_ = g.VecColumn("vcol")
	_, _ = g.WritableVertexMetric("wcol")
	_, _ = g.WritableVertexVec("wvec")
	v.AddMetric("okw", 1)
	_, _ = v.LookupMetric("okr")
	_ = g.VertexMetricColumn("okr")
	_ = g.AttrColumn("okr")
	_, _ = g.WritableVertexMetric("okw")
}, PassInfo{Reads: []string{"okr"}, Writes: []string{"okw"}})

var _ = Describe(func(v *Vert) {
	v.EachMetric(func(string, float64) {})
}, PassInfo{})

var _ = Describe(func(v *Vert) {
	_ = v.NumAttrs()
	v.EachMetric(func(string, float64) {})
}, PassInfo{Reads: []string{"*"}})
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fake.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range findings {
		got[f.Kind+" "+f.Key] = true
	}
	want := []string{
		`write "sum"`,  // AddMetric
		`write "vec"`,  // AddVecAt
		`read "lm"`,    // LookupMetric
		`read "la"`,    // LookupAttr
		`read "lv"`,    // LookupVec
		`read "etime"`, // VertexMetricColumn
		`read "wait"`,  // EdgeMetricColumn
		`read "mcol"`,  // MetricColumn handle
		`read "kind"`,  // AttrColumn handle
		`read "vcol"`,  // VecColumn handle
		`write "wcol"`, // WritableVertexMetric
		`write "wvec"`, // WritableVertexVec
		`read "*"`,     // EachMetric without a wildcard read
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing finding %q; got %v", w, findings)
		}
	}
	if len(findings) != len(want) {
		t.Errorf("want exactly %d findings, got %d: %v", len(want), len(findings), findings)
	}
}
