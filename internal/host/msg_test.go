package host

import (
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
)

func TestMsgSegmentation(t *testing.T) {
	if n := segCount(1, 4096); n != 1 {
		t.Fatalf("segCount(1) = %d", n)
	}
	if n := segCount(4096, 4096); n != 1 {
		t.Fatalf("segCount(4096) = %d", n)
	}
	if n := segCount(4097, 4096); n != 2 {
		t.Fatalf("segCount(4097) = %d", n)
	}
	if b := segBytes(4097, 4096, 1); b != 64 {
		t.Fatalf("tail segment = %d, want 64B minimum frame", b)
	}
	if b := segBytes(10000, 4096, 1); b != 4096 {
		t.Fatalf("middle segment = %d", b)
	}
}

func TestMsgAssembleDedupes(t *testing.T) {
	var seen segSet
	if seen.add(0, 2) {
		t.Fatal("incomplete message reported complete")
	}
	// Duplicate of the same segment must not complete the message.
	if seen.add(0, 2) {
		t.Fatal("duplicate segment completed message")
	}
	if !seen.add(1, 2) {
		t.Fatal("complete message not detected")
	}
	// Assembly state pruned: a late duplicate restarts from scratch.
	if seen.add(1, 2) {
		t.Fatal("stale duplicate completed pruned message")
	}
}

func TestMsgExchangeCountsAndLatency(t *testing.T) {
	h, err := New(Config{Mode: core.FNS, Cores: 2, RxFlows: -1})
	if err != nil {
		t.Fatal(err)
	}
	app, err := h.InstallMessages(MsgConfig{Pattern: LocalServes, Streams: 2, Depth: 2,
		ReqBytes: 8 << 10, RespBytes: 128, AppCPU: 500})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Run(2*sim.Millisecond, 10*sim.Millisecond)
	if r.Completed == 0 || app.n.completed == 0 {
		t.Fatal("no exchanges completed")
	}
	if r.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if r.MsgGbps <= 0 {
		t.Fatal("no message throughput")
	}
}

// TestInstallMessagesRejectsOutOfRange: a negative core index, CPU cost
// or resend timeout has no default to stand for, so InstallMessages
// rejects it and installs nothing.
func TestInstallMessagesRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		cfg  MsgConfig
		want string
	}{
		{MsgConfig{CoreBase: -3}, "host: MsgConfig.CoreBase must be >= 0, got -3"},
		{MsgConfig{AppCPU: -1}, "host: MsgConfig.AppCPU must be >= 0, got -1ns"},
		{MsgConfig{Timeout: -sim.Millisecond}, "host: MsgConfig.Timeout must be >= 0, got -1000000ns"},
	} {
		h, err := New(Config{Mode: core.Strict})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.InstallMessages(c.cfg); err == nil || err.Error() != c.want {
			t.Errorf("InstallMessages(%+v) err = %v, want %q", c.cfg, err, c.want)
		}
		if h.msgs != nil {
			t.Errorf("InstallMessages(%+v) installed the app despite the error", c.cfg)
		}
	}
}

// TestInstallMessagesAfterStartRejected: an app installed after Start
// would never start, so the call is an error and installs nothing.
func TestInstallMessagesAfterStartRejected(t *testing.T) {
	h, err := New(Config{Mode: core.Strict})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	want := "host: InstallMessages after Start"
	if _, err := h.InstallMessages(MsgConfig{}); err == nil || err.Error() != want {
		t.Fatalf("InstallMessages after Start: err = %v, want %q", err, want)
	}
	if h.msgs != nil {
		t.Fatal("InstallMessages after Start installed the app despite the error")
	}
}

// TestInstallMessagesTwiceRejected: a host runs one message app, so a
// second call is an error and the first app keeps its slot and its
// rpc.* instruments.
func TestInstallMessagesTwiceRejected(t *testing.T) {
	h, err := New(Config{Mode: core.Strict})
	if err != nil {
		t.Fatal(err)
	}
	first, err := h.InstallMessages(MsgConfig{Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := "host: InstallMessages called twice; a host runs one message app"
	if _, err := h.InstallMessages(MsgConfig{Streams: 3}); err == nil || err.Error() != want {
		t.Fatalf("second InstallMessages: err = %v, want %q", err, want)
	}
	if h.msgs != first || len(first.live) != 2 {
		t.Fatal("a rejected second InstallMessages replaced the first app")
	}
	if got := h.Telemetry().Histogram("rpc.latency_ns"); got != &first.latency {
		t.Fatal("a rejected second InstallMessages rebound rpc.latency_ns")
	}
	if r := h.Run(sim.Millisecond, 2*sim.Millisecond); r.Completed == 0 {
		t.Fatal("the first app completed no exchanges")
	}
}

func TestMsgDepthBoundsOutstanding(t *testing.T) {
	h, err := New(Config{Mode: core.Off, Cores: 1, RxFlows: -1})
	if err != nil {
		t.Fatal(err)
	}
	h.InstallMessages(MsgConfig{Pattern: LocalClient, Streams: 1, Depth: 3,
		ReqBytes: 64, RespBytes: 4096, AppCPU: 100})
	h.Start()
	h.Engine().Run(5 * sim.Millisecond)
	// Depth 3 slots per stream: never more outstanding than that.
	live, outstanding := &h.msgs.live[0], 0
	for i := 0; i < live.Len(); i++ {
		e := live.Pop()
		if !e.stale() {
			outstanding++
		}
		live.Push(e)
	}
	if outstanding > 3 {
		t.Fatalf("outstanding slots = %d, want <= 3", outstanding)
	}
}

func TestMsgLocalClientRoundtrip(t *testing.T) {
	h, err := New(Config{Mode: core.Strict, Cores: 1, RxFlows: -1})
	if err != nil {
		t.Fatal(err)
	}
	h.InstallMessages(MsgConfig{Pattern: LocalClient, Streams: 1, Depth: 1,
		ReqBytes: 200, RespBytes: 64 << 10, AppCPU: 1000})
	r := h.Run(2*sim.Millisecond, 10*sim.Millisecond)
	if r.Completed == 0 {
		t.Fatal("no exchanges completed")
	}
	// The bulk direction (responses) flows through the local Rx path:
	// translations must have happened.
	if r.IOTLBPerPage < 0.5 {
		t.Fatalf("IOTLB/page = %.2f, want translation activity", r.IOTLBPerPage)
	}
}

// TestMsgLatencyMeasuresWindowOnly: both Host.Run and Cluster.Run reset
// the message app's latency histogram when the measured window opens,
// so it holds exactly one sample per in-window completion.
func TestMsgLatencyMeasuresWindowOnly(t *testing.T) {
	msgs := MsgConfig{Pattern: LocalServes, Streams: 2, Depth: 2, ReqBytes: 4096, RespBytes: 4096,
		AppCPU: 2 * sim.Microsecond}
	check := func(t *testing.T, r Results) {
		t.Helper()
		if r.Completed == 0 {
			t.Fatal("no exchanges completed in the window")
		}
		if n := r.Latency.Count(); n != r.Completed {
			t.Fatalf("latency histogram holds %d samples for %d in-window completions", n, r.Completed)
		}
	}
	t.Run("host", func(t *testing.T) {
		h, err := New(Config{Mode: core.FNS})
		if err != nil {
			t.Fatal(err)
		}
		h.InstallMessages(msgs)
		check(t, h.Run(sim.Millisecond, 2*sim.Millisecond))
	})
	t.Run("cluster", func(t *testing.T) {
		c, err := NewCluster(ClusterConfig{Hosts: 2, Host: Config{Mode: core.FNS}})
		if err != nil {
			t.Fatal(err)
		}
		c.Hosts()[0].InstallMessages(msgs)
		check(t, c.Run(sim.Millisecond, 2*sim.Millisecond).Hosts[0])
	})
}
