package transport

import (
	"fmt"
	"strings"
)

// Op selects the verb a peer flow uses. SendRecv (the zero value) is the
// two-sided shape: the remote CPU posts receive buffers and runs the
// stack per packet. Read and Write are one-sided RDMA verbs: the remote
// NIC resolves the target memory itself — through its device-side ATS
// cache when one is attached — and no remote core touches the data path.
type Op int

const (
	SendRecv Op = iota
	Read
	Write
)

var opNames = [...]string{
	SendRecv: "sendrecv",
	Read:     "read",
	Write:    "write",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ParseOp maps a verb name (as printed by String) back to an Op; ""
// keeps the two-sided default. The error names the input and lists
// every valid verb.
func ParseOp(s string) (Op, error) {
	if s == "" {
		return SendRecv, nil
	}
	for o, name := range opNames {
		if s == name {
			return Op(o), nil
		}
	}
	return 0, fmt.Errorf("transport: unknown rdma op %q (valid: %s)", s, strings.Join(opNames[:], ", "))
}

// OneSided reports whether the verb bypasses the remote CPU.
func (o Op) OneSided() bool { return o != SendRecv }
