package obj_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// sampleImage builds a small well-formed image for seeding the fuzzer.
func sampleImage() *obj.Image {
	img := &obj.Image{
		Name:  "seed",
		Entry: obj.TextBase,
		GP:    0x21800,
		ISA:   riscv.RV64GC,
	}
	img.AddSection(&obj.Section{
		Name: obj.SecText, Addr: obj.TextBase, Perm: obj.PermR | obj.PermX,
		Data: []byte{0x13, 0x00, 0x00, 0x00, 0x73, 0x00, 0x00, 0x00},
	})
	img.AddSection(&obj.Section{
		Name: obj.SecData, Addr: 0x21000, Perm: obj.PermR | obj.PermW,
		Data: bytes.Repeat([]byte{0xAB}, 64),
	})
	img.Symbols = append(img.Symbols,
		obj.Symbol{Name: "main", Addr: obj.TextBase, Size: 8, Kind: obj.SymFunc})
	return img
}

func imageBytes(t testing.TB, img *obj.Image) []byte {
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzObjLoad hammers the wire-format parser with crafted and truncated
// inputs. Properties: never panic, never over-allocate past the declared
// limits, any successfully parsed image must round-trip to a stable
// serialization (parse → write → parse → write is byte-identical), and an
// input the parse consumes whole is that serialization: ReadImage inverts
// WriteTo, which the service relies on to hash a wire once.
func FuzzObjLoad(f *testing.F) {
	valid := imageBytes(f, sampleImage())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), "trailing"...))
	f.Add([]byte("CHIM"))
	f.Add([]byte("ELF\x7f junk"))
	// Crafted header declaring a huge section on a truncated stream: the
	// allocation-bounding regression surfaced by early fuzzing.
	huge := append([]byte(nil), valid[:32]...)
	huge = append(huge, 1, 0, 0, 0) // one section
	huge = append(huge, 2, 0, 'h', 'i')
	huge = binary.LittleEndian.AppendUint64(huge, 0x21000) // addr
	huge = append(huge, 3)                                 // perm
	huge = binary.LittleEndian.AppendUint64(huge, 1<<29)   // declared size, no data
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		img, err := obj.ReadImage(r)
		if err != nil {
			return // rejecting hostile input is the point
		}
		first := imageBytes(t, img)
		if r.Len() == 0 && !bytes.Equal(first, data) {
			t.Fatal("an input read whole is not its image's serialization")
		}
		img2, err := obj.ReadImage(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-parsing our own serialization failed: %v", err)
		}
		if second := imageBytes(t, img2); !bytes.Equal(first, second) {
			t.Fatal("serialization is not a fixed point after one round trip")
		}
	})
}

// TestReadImageHugeSectionTruncated pins the allocation-bounding behavior:
// a header declaring a 512 MiB section backed by zero bytes of data must
// fail with a truncation error without committing the declared allocation.
func TestReadImageHugeSectionTruncated(t *testing.T) {
	valid := imageBytes(t, sampleImage())
	crafted := append([]byte(nil), valid[:32]...)
	crafted = append(crafted, 1, 0, 0, 0)
	crafted = append(crafted, 2, 0, 'h', 'i')
	crafted = binary.LittleEndian.AppendUint64(crafted, 0x21000)
	crafted = append(crafted, 3)
	crafted = binary.LittleEndian.AppendUint64(crafted, 1<<29)
	if _, err := obj.ReadImage(bytes.NewReader(crafted)); err == nil {
		t.Fatal("crafted truncated image parsed successfully")
	}
}
