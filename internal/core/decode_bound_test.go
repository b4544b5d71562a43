package core

import (
	"testing"

	"lcm/internal/wire"
)

// Element counts in host-supplied payloads are bounded by the bytes that
// follow them: a 9-byte batch call or an 8-byte batch result claiming
// ~4·10^9 elements must be rejected, not sized into a multi-gigabyte
// allocation. The enclave parses the batch call before any
// authentication, so this is reachable by the untrusted host.
func TestDecodeBatchCallRejectsOversizedCount(t *testing.T) {
	payload := []byte{callBatch, 0xff, 0xff, 0xff, 0xec, 0, 0, 0, 0}
	if _, err := DecodeBatchCall(payload); err == nil {
		t.Fatal("DecodeBatchCall accepted a count larger than its payload")
	}
}

func TestDecodeBatchResultRejectsOversizedCount(t *testing.T) {
	payload := []byte{0xff, 0xff, 0xff, 0xec, 0, 0, 0, 0}
	if _, err := DecodeBatchResult(payload); err == nil {
		t.Fatal("DecodeBatchResult accepted a count larger than its payload")
	}
}

// The trusted context rejects the same oversized call as an ordinary
// malformed payload: no halt, no allocation.
func TestTrustedRejectsOversizedBatchCount(t *testing.T) {
	r := newRig(t, []uint32{1})
	if _, err := r.enclave.Call([]byte{callBatch, 0xff, 0xff, 0xff, 0xec, 0, 0, 0, 0}); err == nil {
		t.Fatal("enclave accepted a batch call with an oversized count")
	}
	r.mustPut(1, "k", "v")
}

func TestDecodeDeltaRecordRejectsOversizedCounts(t *testing.T) {
	header := func() *wire.Writer {
		w := wire.NewWriter(64)
		w.U64(1)
		w.U64(2)
		w.U64(0)
		w.Bytes32([32]byte{})
		return w
	}
	w := header()
	w.U32(0xffffffec) // V entries
	w.U32(0)
	if _, err := decodeDeltaRecord(w.Bytes()); err == nil {
		t.Fatal("decodeDeltaRecord accepted an oversized entry count")
	}

	w = header()
	w.U32(0)   // no entries
	w.Var(nil) // service delta
	w.U64(0)
	w.U64(0)
	w.U32(0xffffffec) // removed ids
	w.U32(0)
	if _, err := decodeDeltaRecord(w.Bytes()); err == nil {
		t.Fatal("decodeDeltaRecord accepted an oversized removal count")
	}
}

// Every list-carrying ecall the dispatcher parses bounds its counts the
// same way: a count the payload cannot hold is refused before any
// allocation, not sized into one.
func TestDispatchRejectsOversizedCounts(t *testing.T) {
	r := newRig(t, []uint32{1})
	huge := []byte{0xff, 0xff, 0xff, 0xec, 0, 0, 0, 0}
	for _, call := range []struct {
		name    string
		payload []byte
	}{
		{"reshard begin", append([]byte{callReshardBegin, 0, 0, 0, 2}, huge...)},
		{"reshard import", append(append([]byte{callReshardImport}, make([]byte, 8)...), huge...)},
		{"chain sync", append([]byte{callChainSync}, huge...)},
		{"churn", append([]byte{callChurn}, huge...)},
	} {
		if _, err := r.enclave.Call(call.payload); err == nil {
			t.Errorf("%s: oversized count accepted", call.name)
		}
	}
	r.mustPut(1, "k", "v")
}
