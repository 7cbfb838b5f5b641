package chbp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// trailerTables is a Safer-shaped table set: fixed maps plus an address
// map whose relocated addresses move both up and down, the check flag and
// statically encoded targets.
func trailerTables() *Tables {
	tab := NewTables(0x12345)
	tab.ExitTrap[0x9200] = 0x300
	tab.TargetStart, tab.TargetEnd = 0x9000, 0xA000
	tab.AddrMap = map[uint64]uint64{
		0x1000: 0x9000, 0x1002: 0x9004, 0x1006: 0x9004, 0x1010: 0x9100,
		0x1014: 0x1, 0xFFFF_FFFF_FFFF_FFFE: 0xFFFF_FFFF_FFFF_FFFF,
	}
	tab.CheckIndirect = true
	tab.Encoded = map[uint64]bool{0x1002: true, 0x1010: true}
	return tab
}

func TestTablesTrailerRoundTrip(t *testing.T) {
	tab := trailerTables()
	back, err := UnmarshalTables(tab.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tab) {
		t.Errorf("round trip lost data:\n got %+v\nwant %+v", back, tab)
	}

	// Without an AddrMap there is no trailer, whatever the other trailer
	// fields hold: CHBP and strawman payloads keep their bytes.
	plain := NewTables(0x12345)
	plain.Trap[0x200] = 0x9100
	want := plain.Marshal()
	plain.CheckIndirect, plain.Encoded = true, map[uint64]bool{0x200: true}
	if got := plain.Marshal(); !bytes.Equal(got, want) {
		t.Errorf("trailer written without an AddrMap: %d bytes, want %d", len(got), len(want))
	}
	if back, err := UnmarshalTables(want); err != nil || back.AddrMap != nil || back.CheckIndirect || back.Encoded != nil {
		t.Errorf("plain payload parsed to %+v, %v", back, err)
	}

	// Deltas keep the trailer near two bytes per entry on an
	// order-preserving relocation.
	dense := NewTables(0)
	dense.AddrMap = make(map[uint64]uint64)
	for i := uint64(0); i < 1000; i++ {
		dense.AddrMap[0x10000+4*i] = 0x80000 + 8*i
	}
	if n := len(dense.Marshal()) - len(NewTables(0).Marshal()); n > 2*1000+8 {
		t.Errorf("1000-entry address map costs %d bytes", n)
	}
}

// TestUnmarshalTablesRejectsMalformedTrailer: every way the trailer can
// disagree with what Marshal writes is an error, never a partial parse.
func TestUnmarshalTablesRejectsMalformedTrailer(t *testing.T) {
	tab := trailerTables()
	good := tab.Marshal()
	tab.AddrMap = nil
	head := len(tab.Marshal())
	cases := map[string][]byte{
		"truncated":         good[:len(good)-1],
		"trailing byte":     append(append([]byte(nil), good...), 0),
		"empty address map": append(append([]byte(nil), good[:head]...), 0, 0, 0),
		"check flag 2":      append(append([]byte(nil), good[:head]...), 1, 2, 4, 2, 0),
		"repeated key":      append(append([]byte(nil), good[:head]...), 2, 2, 4, 0, 0, 0, 0),
		"overlong count":    append(append([]byte(nil), good[:head]...), 0x80, 0x80, 0x80, 0x80, 0x01),
	}
	for name, b := range cases {
		if tab, err := UnmarshalTables(b); err == nil {
			t.Errorf("%s: parsed to %+v", name, tab)
		}
	}
}

// TestUnmarshalTablesBoundsCountsByPayload: a 32-byte payload declaring
// 2^22 fault-table entries must fail without pre-sizing a map for them.
func TestUnmarshalTablesBoundsCountsByPayload(t *testing.T) {
	payload := make([]byte, 32)
	binary.LittleEndian.PutUint64(payload[24:], 1<<22)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := UnmarshalTables(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count the payload cannot hold parsed")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting the payload allocated %d bytes, want < 1 MiB", got)
	}
}

// FuzzUnmarshalTables: no payload panics the parser, and a payload that
// parses re-marshals to bytes that parse to the same tables.
func FuzzUnmarshalTables(f *testing.F) {
	f.Add(NewTables(0).Marshal())
	f.Add(trailerTables().Marshal())
	tab := NewTables(0x800)
	tab.Redirect[0x100] = 0x9000
	tab.Spaces[0x100] = 0x108
	tab.Resolved[0x200] = 3
	f.Add(tab.Marshal())
	bomb := make([]byte, 32)
	binary.LittleEndian.PutUint64(bomb[24:], 1<<22)
	f.Add(bomb)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := UnmarshalTables(data)
		if err != nil {
			return
		}
		back, err := UnmarshalTables(tab.Marshal())
		if err != nil {
			t.Fatalf("re-marshaled tables do not parse: %v", err)
		}
		if !reflect.DeepEqual(back, tab) {
			t.Fatalf("re-marshal changed the tables:\n got %+v\nwant %+v", back, tab)
		}
	})
}
