package codec

import (
	"bytes"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestContainerBytesGolden pins the container byte format against
// hand-written bytes for a two-tensor dict under every codec: the magic,
// the version byte, the varint tensor count, name lengths (one of them
// two varint bytes long), dims, dtype tags and the little-endian
// payloads. Checkpoints and spill files persist these bytes, so any
// change to them is a format change.
func TestContainerBytesGolden(t *testing.T) {
	long := strings.Repeat("w", 130) // name length 130 = varint 0x82 0x01
	sd := nn.StateDict{
		"a":  tensor.FromSlice([]float64{-1, 254}, 2),
		long: tensor.FromSlice([]float64{0.25}, 1, 1),
	}
	header := []byte{'F', 'Z', 'K', 'S', 0x01, 0x02}
	// tensorHead is one tensor's name, dtype tag and shape.
	tensorHead := func(name string, dtype byte, dims ...byte) []byte {
		var b []byte
		if len(name) < 0x80 {
			b = append(b, byte(len(name)))
		} else {
			b = append(b, 0x82, 0x01)
		}
		b = append(b, name...)
		return append(append(b, dtype), dims...)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		codec string
		want  []byte
	}{
		{Float64, join(header,
			tensorHead("a", 0x01, 0x01, 0x02),
			[]byte{0, 0, 0, 0, 0, 0, 0xF0, 0xBF},    // -1
			[]byte{0, 0, 0, 0, 0, 0xC0, 0x6F, 0x40}, // 254
			tensorHead(long, 0x01, 0x02, 0x01, 0x01),
			[]byte{0, 0, 0, 0, 0, 0, 0xD0, 0x3F}, // 0.25
		)},
		{Float16, join(header,
			tensorHead("a", 0x02, 0x01, 0x02),
			[]byte{0x00, 0xBC, 0xF0, 0x5B}, // -1, 254
			tensorHead(long, 0x02, 0x02, 0x01, 0x01),
			[]byte{0x00, 0x34}, // 0.25
		)},
		{Int8, join(header,
			tensorHead("a", 0x03, 0x01, 0x02),
			[]byte{0, 0, 0, 0, 0, 0, 0xF0, 0xBF}, // offset -1
			[]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}, // step (254+1)/255 = 1
			[]byte{0x00, 0xFF},                   // -1, 254
			tensorHead(long, 0x03, 0x02, 0x01, 0x01),
			[]byte{0, 0, 0, 0, 0, 0, 0xD0, 0x3F}, // offset 0.25
			[]byte{0, 0, 0, 0, 0, 0, 0, 0},       // step 0 (one element)
			[]byte{0x00},
		)},
	}
	for _, tc := range cases {
		got := encode(t, tc.codec, sd)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s container:\n got % x\nwant % x", tc.codec, got, tc.want)
		}
		// Appending after a prefix writes the same bytes.
		c, _ := Get(tc.codec)
		prefixed, err := c.Append([]byte{0xAA}, sd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prefixed[1:], tc.want) || prefixed[0] != 0xAA {
			t.Errorf("%s container appended after a prefix differs", tc.codec)
		}
	}
}
