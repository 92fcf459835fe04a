package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fastsafe/internal/host"
)

// tiny returns extremely short windows so the whole figure set can be
// exercised in the unit-test budget.
func tiny() Options {
	o := Quick()
	o.Warmup /= 3
	o.Measure /= 3
	o.RPCMeasure /= 3
	return o
}

// TestIDsAllResolvable checks the figure table's registration without
// running any figure: every id is non-empty and unique, an unknown id is
// rejected, and testdata/golden holds exactly one file per id, so a
// renamed or dropped figure cannot leave an orphan golden behind.
func TestIDsAllResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if id == "" || seen[id] {
			t.Fatalf("figure id %q is empty or registered twice", id)
		}
		seen[id] = true
	}
	if _, err := ByID("nope", tiny()); err == nil {
		t.Fatal("unknown id accepted")
	}
	files, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(f.Name(), ".txt")
		if !seen[id] {
			t.Errorf("golden file %s has no figure id", f.Name())
		}
		delete(seen, id)
	}
	for id := range seen {
		t.Errorf("figure %s has no golden file", id)
	}
}

func TestFig12Shape(t *testing.T) {
	tab := Fig12(tiny())
	if len(tab.Rows) != 4 {
		t.Fatalf("fig12 rows = %d, want 4 configurations", len(tab.Rows))
	}
	if tab.Rows[0][0] != "Linux" || tab.Rows[3][0] != "F&S" {
		t.Fatalf("fig12 labels = %v", tab.Rows)
	}
	out := tab.String()
	if !strings.Contains(out, "fig12") || !strings.Contains(out, "app_gbps") {
		t.Fatalf("table formatting: %q", out)
	}
}

func TestFig10Shape(t *testing.T) {
	tab := Fig10(tiny())
	if len(tab.Rows) != 9 {
		t.Fatalf("fig10 rows = %d, want 3 modes x 3 core counts", len(tab.Rows))
	}
}

func TestFig2eLocality(t *testing.T) {
	tab, err := ByID("fig2e", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("fig2e rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[0] != "strict" {
			t.Fatalf("fig2e mode = %q", row[0])
		}
	}
}

func TestModelTableIncludesFit(t *testing.T) {
	tab := Model(tiny())
	found := false
	for _, row := range tab.Rows {
		if row[0] == "fit" {
			found = true
		}
	}
	if !found {
		t.Fatal("model table missing the (l0, lm) re-fit row")
	}
}

func TestTableStringAligned(t *testing.T) {
	tab := Table{ID: "x", Title: "t", Header: []string{"a", "bbbb"},
		Rows: [][]string{{"lonnng", "1"}}}
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "lonnng") {
		t.Fatalf("row line = %q", lines[2])
	}
}

func TestByIDRunsOneFigure(t *testing.T) {
	tab, err := ByID("modes", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("modes rows = %d, want 8", len(tab.Rows))
	}
}

func TestExtensionTablesShape(t *testing.T) {
	o := tiny()
	if tab := Hugepages(o); len(tab.Rows) != 6 {
		t.Fatalf("huge rows = %d", len(tab.Rows))
	}
	if tab := CPUCost(o); len(tab.Rows) != 8 {
		t.Fatalf("cpucost rows = %d", len(tab.Rows))
	}
	if tab := Storage(o); len(tab.Rows) != 6 {
		t.Fatalf("storage rows = %d", len(tab.Rows))
	}
	if tab := MemoryHog(o); len(tab.Rows) != 9 {
		t.Fatalf("memhog rows = %d", len(tab.Rows))
	}
	if tab := Seeds(o); len(tab.Rows) != 8 {
		t.Fatalf("seeds rows = %d", len(tab.Rows))
	}
}

// TestClusterTrends locks the cluster figure's headline claims: F&S's
// aggregate goodput never drops as hosts are added, strict mode's
// degrades past its peak, F&S beats strict at every size, and no host
// ever serves a stale DMA.
func TestClusterTrends(t *testing.T) {
	tab := Cluster(tiny())
	agg := map[string][]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("agg_gbps %q: %v", row[2], err)
		}
		agg[row[0]] = append(agg[row[0]], v)
		for _, s := range strings.Split(row[5], "/") {
			if s != "0" {
				t.Errorf("%s hosts=%s: stale-served DMAs %q", row[0], row[1], row[5])
			}
		}
	}
	fns, strict := agg["fns"], agg["strict"]
	if len(fns) != 4 || len(strict) != 4 {
		t.Fatalf("rows per mode: fns=%d strict=%d, want 4", len(fns), len(strict))
	}
	for i := 1; i < len(fns); i++ {
		if fns[i] < fns[i-1] {
			t.Errorf("fns aggregate degrades with hosts: %v", fns)
		}
	}
	peak := strict[0]
	for _, v := range strict {
		if v > peak {
			peak = v
		}
	}
	if last := strict[len(strict)-1]; last >= peak {
		t.Errorf("strict aggregate should degrade past its peak: %v", strict)
	}
	for i := range fns {
		if fns[i] <= strict[i] {
			t.Errorf("fns %v not above strict %v at index %d", fns[i], strict[i], i)
		}
	}
}

// TestRdmaTrends locks the rdma figure's two claims: one-sided WRITE
// through a warm device TLB beats CPU-paced send/recv at equal flow
// count, and the safe modes audit zero stale DMAs at every device-TLB
// capacity while the no-shootdown strawman serves stale ATC entries as
// soon as the cache can hold its window.
func TestRdmaTrends(t *testing.T) {
	tab := Rdma(tiny())
	type cell struct {
		agg      float64
		staleATS int64
	}
	grid := map[string]map[string]cell{} // mode -> "op@ats" -> cell
	for _, row := range tab.Rows {
		agg, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("agg_gbps %q: %v", row[3], err)
		}
		stale, err := strconv.ParseInt(row[7], 10, 64)
		if err != nil {
			t.Fatalf("stale_ats %q: %v", row[7], err)
		}
		if grid[row[0]] == nil {
			grid[row[0]] = map[string]cell{}
		}
		grid[row[0]][row[1]+"@"+row[2]] = cell{agg, stale}
		if safe := row[0] == "strict" || row[0] == "fns"; safe && (row[7] != "0" || row[8] != "0") {
			t.Errorf("%s %s@%s: stale_ats=%s stale_total=%s, want 0/0", row[0], row[1], row[2], row[7], row[8])
		}
	}
	for _, mode := range []string{"strict", "fns"} {
		cells := grid[mode]
		if len(cells) != 4 {
			t.Fatalf("%s rows: %d, want 4", mode, len(cells))
		}
		if w, s := cells["write@1024"].agg, cells["sendrecv@0"].agg; w <= s {
			t.Errorf("%s one-sided write@1024 %.1fGbps not above sendrecv %.1fGbps", mode, w, s)
		}
	}
	var strawmanStale int64
	for _, c := range grid["defer-noshootdown"] {
		strawmanStale += c.staleATS
	}
	if strawmanStale == 0 {
		t.Error("defer-noshootdown audited zero stale ATS hits; the strawman should serve stale translations")
	}
}

// TestServingTrends locks the serving figure's headline claims: zero
// stale-served DMAs in every row at every churn rate; strict's IOVA
// tree-allocation count an order of magnitude above F&S's at every
// churn level (the preserved-cache story under churn); strict's p99
// above F&S's in every matching row; and the cohort8 rows' counter
// columns identical to the exact churn-0.20 host rows (the grouping-
// invariance contract surfaced in the published table).
func TestServingTrends(t *testing.T) {
	tab := Serving(tiny())
	type row struct {
		served, deaths, allocs, checked string
		p99                             float64
	}
	rows := map[string]row{} // "mode/scope/churn"
	for _, r := range tab.Rows {
		if r[len(r)-1] != "0" {
			t.Errorf("%s %s churn=%s: stale_served=%s, want 0", r[0], r[1], r[2], r[len(r)-1])
		}
		p99, err := strconv.ParseFloat(r[5], 64)
		if err != nil {
			t.Fatalf("p99_us %q: %v", r[5], err)
		}
		if r[3] == "0" || r[7] == "0" {
			t.Errorf("%s %s churn=%s: vacuous cell (served=%s deaths=%s)", r[0], r[1], r[2], r[3], r[7])
		}
		rows[r[0]+"/"+r[1]+"/"+r[2]] = row{served: r[3], deaths: r[7], allocs: r[8], checked: r[10], p99: p99}
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	for _, churn := range []string{"0.05", "0.20", "0.50"} {
		strict, fns := rows["strict/host/"+churn], rows["fns/host/"+churn]
		sa, _ := strconv.ParseInt(strict.allocs, 10, 64)
		fa, _ := strconv.ParseInt(fns.allocs, 10, 64)
		if sa < 5*fa {
			t.Errorf("churn %s: strict iova_allocs %d not well above fns %d", churn, sa, fa)
		}
		if strict.p99 <= fns.p99 {
			t.Errorf("churn %s: strict p99 %.1f not above fns %.1f", churn, strict.p99, fns.p99)
		}
	}
	for _, mode := range []string{"strict", "fns", "cap"} {
		exact, agg := rows[mode+"/host/0.20"], rows[mode+"/cohort8/0.20"]
		if exact.served != agg.served || exact.deaths != agg.deaths ||
			exact.allocs != agg.allocs || exact.checked != agg.checked {
			t.Errorf("%s: cohort8 counters diverged from exact row: %+v vs %+v", mode, exact, agg)
		}
	}
}

// TestClusterScaleShape runs the clusterscale machinery on a reduced
// grid: one row per cell, the sharded run matching the unsharded one's
// goodput and only it counting coordinator rounds.
func TestClusterScaleShape(t *testing.T) {
	cells := []clusterScaleCell{
		{host.Pairs, 8, 1}, {host.Pairs, 8, 2},
	}
	tab := clusterScaleTable(cells, tiny())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	if tab.Rows[0][2] != "1" || tab.Rows[1][2] != "2" {
		t.Fatalf("shards column = %v", tab.Rows)
	}
	if tab.Rows[0][3] != tab.Rows[1][3] {
		t.Fatalf("sharded goodput %s != unsharded %s", tab.Rows[1][3], tab.Rows[0][3])
	}
	if tab.Rows[0][4] != "0" {
		t.Fatalf("unsharded rounds = %s, want 0", tab.Rows[0][4])
	}
	if tab.Rows[1][4] == "0" {
		t.Fatal("sharded run reported zero coordinator rounds")
	}
}

// TestParallelFigureMatchesSerial regenerates the same figure with one
// worker and with eight and requires identical tables: the runner fan-out
// must never change a figure's contents, only its wall-clock time.
func TestParallelFigureMatchesSerial(t *testing.T) {
	serialOpts := tiny()
	serialOpts.Parallel = 1
	parOpts := tiny()
	parOpts.Parallel = 8
	serial := Deferred(serialOpts)
	par := Deferred(parOpts)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel table diverges from serial:\n%s\nvs\n%s", par, serial)
	}
}

func TestCSVFormat(t *testing.T) {
	tab := Table{ID: "x", Title: "t", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	got := tab.CSV()
	want := "a,b\n1,2\n3,4\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
