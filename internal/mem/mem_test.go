package mem

import (
	"testing"
	"testing/quick"
)

func TestPagesInRoundsUp(t *testing.T) {
	cases := []struct {
		size Bytes
		ps   Bytes
		want Pages
	}{
		{0, 4 * KiB, 0},
		{-5, 4 * KiB, 0},
		{1, 4 * KiB, 1},
		{4 * KiB, 4 * KiB, 1},
		{4*KiB + 1, 4 * KiB, 2},
		{1 * GiB, 4 * KiB, 262144},
		{384 * MiB, 64 * KiB, 6144},
		{1 * GiB, 64 * KiB, 16384},
	}
	for _, c := range cases {
		if got := PagesIn(c.size, c.ps); got != c.want {
			t.Errorf("PagesIn(%d,%d) = %d, want %d", c.size, c.ps, got, c.want)
		}
	}
}

func TestBytesInRoundTrip(t *testing.T) {
	f := func(pRaw uint16, shift uint8) bool {
		p := Pages(pRaw)
		ps := Bytes(1) << (10 + shift%7) // 1KiB..64KiB
		return PagesIn(BytesIn(p, ps), ps) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagesInRejectsBadPageSize(t *testing.T) {
	for _, ps := range []Bytes{0, -4096, 3000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PagesIn with page size %d did not panic", ps)
				}
			}()
			PagesIn(MiB, ps)
		}()
	}
}

func TestBytesString(t *testing.T) {
	cases := map[Bytes]string{
		2 * GiB:     "2GiB",
		384 * MiB:   "384MiB",
		64 * KiB:    "64KiB",
		1000:        "1000B",
		GiB + 5*MiB: "1029MiB",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(b), got, want)
		}
	}
}
