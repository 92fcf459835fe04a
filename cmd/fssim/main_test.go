package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/coverage"
	"strings"
	"testing"

	"fastsafe/internal/core"
)

// asMainEnv makes the test binary run main() instead of the tests, so
// the tests can drive fssim as a subprocess: real flag parsing, real
// stdout and stderr, real exit status.
const asMainEnv = "FSSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		writeCoverage()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeCoverage saves the statement counters of a test binary built
// with -cover and running as fssim in $GOCOVERDIR: such a run ends
// before the testing package would write them. `make reach` runs the
// goldenRuns vectors this way.
func writeCoverage() {
	dir := os.Getenv("GOCOVERDIR")
	if dir == "" {
		return
	}
	if coverage.WriteMetaDir(dir) == nil { // fails unless built with -cover
		coverage.WriteCountersDir(dir)
	}
}

// fssim runs the test binary as fssim with args and returns its stdout,
// stderr and exit code.
func fssim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("fssim %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), code
}

// window keeps every golden run short: 1 ms warmup, 3 ms measured.
var window = []string{"-warmup", "1", "-ms", "3"}

// goldenRuns cover each output shape fssim prints: one host under
// several modes and workload shapes, a seed study, co-tenant devices,
// the timeline CSV, fault campaigns, the control plane, the serving
// fleet, the locality trace, capability modes and device TLBs, and
// clusters with every traffic pattern, both one-sided verbs, two shards
// and each host's control decisions.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"fns", []string{"-mode", "fns"}},
	{"strict_seeds3", []string{"-mode", "strict", "-seeds", "3", "-parallel", "2"}},
	{"fnshuge_shape", []string{"-mode", "fns+huge", "-flows", "8", "-txflows", "2", "-cores", "4",
		"-ring", "512", "-mtu", "9000", "-desc", "32", "-seed", "5"}},
	{"strict_storage2x2", []string{"-mode", "strict", "-storage", "2", "-storagedevs", "2"}},
	// The NIC's deferred flushes drop only its own domain's entries, so
	// the storage device's translations keep hitting. Its longer window
	// (later flags win) gives the flushes time to show.
	{"deferred_storage4_fns", []string{"-mode", "deferred", "-storage", "4", "-devmode", "fns",
		"-ms", "10", "-warmup", "5"}},
	{"fns_nic_devmode_ats", []string{"-mode", "fns", "-nics", "1", "-devmode", "strict", "-atsentries", "256"}},
	{"strict_memhog_timeline", []string{"-mode", "strict", "-memhog", "12", "-timeline", "-sampleus", "1000"}},
	{"fns_faults", []string{"-mode", "fns", "-faults", "1", "-faultseed", "7"}},
	{"strawman_audit", []string{"-mode", "defer-noshootdown", "-audit"}},
	{"fns_control", []string{"-mode", "fns", "-faults", "campaign=1,straydma=0.05,wilddma=0.03",
		"-control", "guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=1ms"}},
	{"fns_serve", []string{"-mode", "fns", "-serve", "-churn", "0.3", "-conns", "24"}},
	{"strict_serve_cohort", []string{"-mode", "strict", "-serve", "-churn", "0.5", "-cohort", "4", "-audit"}},
	{"fns_trace", []string{"-mode", "fns", "-trace"}},
	{"cap_audit", []string{"-mode", "cap", "-audit"}},
	{"caplazy_ats_audit", []string{"-mode", "cap-lazyrevoke", "-atsentries", "1024", "-audit"}},
	{"cluster2_fns", []string{"-hosts", "2", "-mode", "fns"}},
	{"cluster4_alltoall_oversub", []string{"-hosts", "4", "-traffic", "alltoall", "-oversub", "2"}},
	{"cluster4_pairs_shards2", []string{"-hosts", "4", "-traffic", "pairs", "-shards", "2", "-audit"}},
	{"cluster4_write_ats", []string{"-hosts", "4", "-traffic", "pairs", "-rdma", "write", "-atsentries", "1024"}},
	{"cluster3_read_fabric", []string{"-hosts", "3", "-rdma", "read", "-fabricgbps", "50",
		"-flowsperpair", "2", "-mode", "strict+contig"}},
	{"cluster2_serve", []string{"-hosts", "2", "-serve", "-conns", "16", "-mode", "fns"}},
	{"cluster4_control_shards2", []string{"-hosts", "4", "-shards", "2", "-mode", "fns",
		"-faults", "campaign=1,straydma=0.05,wilddma=0.03",
		"-control", "guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=1ms"}},
}

// TestGoldenFssimRuns locks fssim's stdout byte-for-byte for each
// goldenRuns vector. Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/fssim -run Golden.
func TestGoldenFssimRuns(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, g := range goldenRuns {
		stdout, stderr, code := fssim(t, append(append([]string(nil), window...), g.args...)...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", g.name, code, stderr)
		}
		path := filepath.Join("testdata", "golden", g.name+".txt")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with UPDATE_GOLDEN=1)", g.name, err)
		}
		if stdout != string(want) {
			t.Errorf("%s diverged from golden file %s:\ngot:\n%s\nwant:\n%s", g.name, path, stdout, want)
		}
	}
}

// TestTimelineHeaderWithoutSamples: a sampling interval longer than the
// window samples nothing in it, and -timeline still ends the output with
// the CSV header.
func TestTimelineHeaderWithoutSamples(t *testing.T) {
	stdout, stderr, code := fssim(t, append(append([]string(nil), window...),
		"-mode", "strict", "-timeline", "-sampleus", "5000")...)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	const header = "t_us,rx_gbps,tx_gbps,iotlb_miss_per_pg,ptcache_miss_per_pg,walk_reads,inv_reqs,cwnd_mean,core_util_max,invq_depth,mem_util\n"
	if !strings.HasSuffix(stdout, "\n"+header) {
		t.Fatalf("output does not end with the bare timeline header:\n%s", stdout)
	}
}

// TestRejectsBadConfigs: every configuration error exits 2, prints
// nothing on stdout, and names the bad value on stderr behind fssim's
// prefix. want is matched case-insensitively.
func TestRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"mode", []string{"-mode", "bogus"}, `protection mode "bogus"`},
		{"empty mode", []string{"-mode", ""}, "protection mode"},
		{"devmode", []string{"-devmode", "turbo"}, `protection mode "turbo"`},
		{"rdma verb", []string{"-hosts", "2", "-rdma", "fetch"}, `op "fetch"`},
		{"rdma single host", []string{"-rdma", "write"}, "-rdma needs cluster mode"},
		{"churn without serve", []string{"-churn", "0.3"}, "-churn 0.3 needs -serve"},
		{"zero conns", []string{"-serve", "-conns", "0"}, "conns must be >= 1, got 0"},
		{"churn not a number", []string{"-serve", "-churn", "often"}, `"often"`},
		{"conns not a number", []string{"-serve", "-conns", "many"}, `"many"`},
		{"cohort not a number", []string{"-serve", "-cohort", "big"}, `"big"`},
		{"ats entries not a number", []string{"-atsentries", "lots"}, `"lots"`},
		{"negative ats entries", []string{"-atsentries", "-8"}, "must be >= 0, got -8"},
		{"zero seeds", []string{"-seeds", "0"}, "-seeds must be >= 1"},
		{"fault spec", []string{"-faults", "junk=1"}, `unknown key "junk"`},
		{"control spec", []string{"-control", "governor,metric=x"}, `unknown rule kind "governor"`},
		{"traffic", []string{"-hosts", "2", "-traffic", "mesh"}, `traffic pattern "mesh"`},
		// Rejected by host.New and host.NewCluster, whose range rules
		// every caller of host.Config gets; fssim prints them as is.
		{"tiny mtu", []string{"-mtu", "32"}, "MTU must be 0 (the default) or at least 64 bytes, got 32"},
		{"cohort above conns", []string{"-serve", "-conns", "8", "-cohort", "100"}, "Serve.Cohort must be <= Serve.Conns, got 100 > 8"},
		{"zero cohort", []string{"-serve", "-cohort", "0"}, "cohort size must be >= 1, got 0"},
		{"over-unity churn", []string{"-serve", "-churn", "1.5"}, "churn rate must be in (0, 1], got 1.5"},
		{"negative fabric rate", []string{"-hosts", "2", "-fabricgbps", "-5"}, "Fabric.PortGbps must be >= 0, got -5"},
		{"negative cores", []string{"-cores", "-3"}, "Cores must be >= 0, got -3"},
		{"negative ring", []string{"-ring", "-5"}, "RingPackets must be >= 0, got -5"},
		{"negative tx flows", []string{"-txflows", "-1"}, "TxFlows must be >= 0, got -1"},
		{"negative descriptor", []string{"-desc", "-4"}, "DescriptorPages must be >= 0, got -4"},
		{"negative memhog", []string{"-memhog", "-3"}, "MemHogGBps must be >= 0, got -3"},
		{"negative seed", []string{"-seed", "-3"}, "Seed must be >= 0, got -3"},
		{"negative fault seed", []string{"-faultseed", "-2", "-faults", "1"}, "FaultSeed must be >= 0, got -2"},
		{"negative flows per pair", []string{"-hosts", "2", "-flowsperpair", "-3"}, "FlowsPerPair must be >= 0, got -3"},
		{"negative shards", []string{"-hosts", "2", "-shards", "-1"}, "Shards must be >= 0, got -1"},
		{"one host", []string{"-hosts", "1"}, "Hosts must be >= 2, got 1"},
		{"negative hosts", []string{"-hosts", "-2"}, "Hosts must be >= 2, got -2"},
		{"negative oversub", []string{"-hosts", "2", "-oversub", "-1"}, "Oversub must be >= 0, got -1"},
		// fssim's own flags.
		{"negative nics", []string{"-nics", "-1"}, "-nics must be >= 0, got -1"},
		{"negative storage devices", []string{"-storagedevs", "-1"}, "-storagedevs must be >= 0, got -1"},
		{"negative storage rate", []string{"-storage", "-2"}, "-storage must be >= 0, got -2"},
		{"zero window", []string{"-ms", "0"}, "-ms must be >= 1, got 0"},
		{"negative warmup", []string{"-warmup", "-1"}, "-warmup must be >= 0, got -1"},
		{"devmode names capability modes", []string{"-nics", "1", "-devmode", "cap-lazy"}, "cap-lazyrevoke"},
		// Flags the run would ignore: each needs a switch that is off.
		{"traffic single host", []string{"-traffic", "mesh"}, `traffic pattern "mesh"`},
		{"shards single host", []string{"-shards", "4"}, "-shards 4 needs cluster mode"},
		{"oversub single host", []string{"-oversub", "2"}, "-oversub 2 needs cluster mode"},
		{"fabric rate single host", []string{"-fabricgbps", "50"}, "-fabricgbps 50 needs cluster mode"},
		{"flows per pair single host", []string{"-flowsperpair", "3"}, "-flowsperpair 3 needs cluster mode"},
		{"two-sided rdma single host", []string{"-rdma", "sendrecv"}, "-rdma needs cluster mode"},
		{"cluster flows", []string{"-hosts", "2", "-flows", "8"}, "-flows 8 needs a single host"},
		{"cluster tx flows", []string{"-hosts", "2", "-txflows", "1"}, "-txflows 1 needs a single host"},
		{"cluster timeline", []string{"-hosts", "2", "-timeline"}, "-timeline needs a single host"},
		{"cluster trace", []string{"-hosts", "2", "-trace"}, "-trace needs a single host"},
		{"sampleus without timeline", []string{"-sampleus", "7"}, "-sampleus 7 needs -timeline"},
		{"parallel one seed", []string{"-parallel", "2"}, "-parallel 2 needs -seeds above 1"},
		{"fault seed without faults", []string{"-faultseed", "7"}, "-faultseed 7 needs -faults"},
		{"devmode without device", []string{"-devmode", "strict"}, "-devmode needs a co-tenant device"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := fssim(t, append(append([]string(nil), window...), c.args...)...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Fatalf("rejected run printed results:\n%s", stdout)
			}
			// The flag package reports an unparsable value itself,
			// without the prefix.
			if !strings.HasPrefix(stderr, "fssim: ") && !strings.HasPrefix(stderr, "invalid value ") {
				t.Fatalf("stderr %q lacks the fssim: prefix", stderr)
			}
			if !strings.Contains(strings.ToLower(stderr), strings.ToLower(c.want)) {
				t.Fatalf("stderr %q does not contain %q", stderr, c.want)
			}
		})
	}
}

// TestModeHelpListsEveryMode: -h documents every mode -mode accepts,
// the capability family and the strawman included.
func TestModeHelpListsEveryMode(t *testing.T) {
	_, stderr, code := fssim(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	_, help, ok := strings.Cut(stderr, "  -mode string\n")
	if !ok {
		t.Fatalf("no -mode entry in the help:\n%s", stderr)
	}
	help, _, _ = strings.Cut(help, "\n")
	for _, name := range core.ValidModeNames() {
		if !strings.Contains(help, name) {
			t.Errorf("-mode help %q does not list %q", help, name)
		}
	}
}
