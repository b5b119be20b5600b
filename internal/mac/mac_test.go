package mac

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"00:1a:2b:3c:4d:5e", "ff:ff:ff:ff:ff:ff", "00:00:00:00:00:01"} {
		a, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if a.String() != s {
			t.Fatalf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseSeparators(t *testing.T) {
	a, err := Parse("00-1A-2B-3C-4D-5E")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "00:1a:2b:3c:4d:5e" {
		t.Fatalf("got %q", a.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "00:11:22:33:44", "00:11:22:33:44:55:66", "zz:11:22:33:44:55", "0:1:2:3:4:5"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) succeeded", s)
		}
	}
}

// nic is the bottom 24 bits — the per-device part anonymization hashes.
func nic(a Addr) uint32 { return uint32(a[3])<<16 | uint32(a[4])<<8 | uint32(a[5]) }

func TestOUIAndNIC(t *testing.T) {
	a := MustParse("a4:b1:c2:01:02:03")
	if a.OUI() != 0xa4b1c2 {
		t.Fatalf("OUI = %06x", a.OUI())
	}
	if nic(a) != 0x010203 {
		t.Fatalf("NIC = %06x", nic(a))
	}
}

func TestFromOUIInverse(t *testing.T) {
	if err := quick.Check(func(oui, n uint32) bool {
		oui &= 0xffffff
		n &= 0xffffff
		a := FromOUI(oui, n)
		return a.OUI() == oui && nic(a) == n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlagBits(t *testing.T) {
	var zero Addr
	if !zero.IsZero() {
		t.Fatal("zero not detected")
	}
}

func TestAnonymizePreservesOUI(t *testing.T) {
	z := NewAnonymizer([]byte("study-key"))
	if err := quick.Check(func(raw [6]byte) bool {
		a := Addr(raw)
		out := z.Anonymize(a)
		return out.OUI() == a.OUI()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnonymizeDeterministic(t *testing.T) {
	z := NewAnonymizer([]byte("k"))
	a := MustParse("a4:b1:c2:01:02:03")
	if z.Anonymize(a) != z.Anonymize(a) {
		t.Fatal("not deterministic")
	}
}

func TestAnonymizeChangesNIC(t *testing.T) {
	z := NewAnonymizer([]byte("k"))
	changed := 0
	for n := uint32(0); n < 100; n++ {
		a := FromOUI(0xa4b1c2, n)
		if nic(z.Anonymize(a)) != nic(a) {
			changed++
		}
	}
	if changed < 99 {
		t.Fatalf("only %d/100 NICs changed", changed)
	}
}

func TestAnonymizeKeysUnlinkable(t *testing.T) {
	a := MustParse("a4:b1:c2:01:02:03")
	z1 := NewAnonymizer([]byte("period-1"))
	z2 := NewAnonymizer([]byte("period-2"))
	if z1.Anonymize(a) == z2.Anonymize(a) {
		t.Fatal("different keys produced the same pseudonym")
	}
}

func TestAnonymizeInjectiveOnSample(t *testing.T) {
	// Distinct devices should (overwhelmingly) keep distinct pseudonyms —
	// collisions would merge devices in the Traffic data set.
	z := NewAnonymizer([]byte("k"))
	seen := make(map[Addr]Addr)
	for nic := uint32(0); nic < 5000; nic++ {
		a := FromOUI(0xa4b1c2, nic)
		out := z.Anonymize(a)
		if prev, ok := seen[out]; ok {
			t.Fatalf("collision: %v and %v both -> %v", prev, a, out)
		}
		seen[out] = a
	}
}

// parseScanf is Parse as it stood before it read octets through a hex
// table: the reference FuzzParseMatchesScanf and TestOctetsMatchScanf
// hold Parse to.
func parseScanf(s string) (Addr, error) {
	var a Addr
	norm := strings.NewReplacer("-", ":", ".", ":").Replace(strings.TrimSpace(s))
	parts := strings.Split(norm, ":")
	if len(parts) != 6 {
		return a, fmt.Errorf("mac: %q: want 6 octets, got %d", s, len(parts))
	}
	for i, p := range parts {
		var b byte
		if _, err := fmt.Sscanf(p, "%02x", &b); err != nil || len(p) != 2 {
			return a, fmt.Errorf("mac: %q: bad octet %q", s, p)
		}
		a[i] = b
	}
	return a, nil
}

// sameParse reports how Parse and parseScanf differ on s, or "".
func sameParse(s string) string {
	got, err := Parse(s)
	want, wantErr := parseScanf(s)
	switch {
	case (err == nil) != (wantErr == nil):
		return fmt.Sprintf("Parse(%q) error %v, Sscanf's %v", s, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		return fmt.Sprintf("Parse(%q) error %q, Sscanf's %q", s, err, wantErr)
	case got != want:
		return fmt.Sprintf("Parse(%q) = %v, Sscanf's %v", s, got, want)
	}
	return ""
}

// TestOctetsMatchScanf: every two-byte octet parses as %02x reads it —
// including the octets Sscanf accepts that are not two hex digits
// (" f", "f ", "\tf", "0x", "f~") — each in one of the six positions,
// taken in turn.
func TestOctetsMatchScanf(t *testing.T) {
	if testing.Short() {
		t.Skip("65,536 octets through Sscanf")
	}
	parts := []string{"00", "11", "22", "33", "44", "55"}
	for i := 0; i < 1<<16; i++ {
		at := append([]string(nil), parts...)
		at[i%6] = string([]byte{byte(i >> 8), byte(i)})
		if diff := sameParse(strings.Join(at, ":")); diff != "" {
			t.Fatal(diff)
		}
	}
}

func TestStringMatchesSprintf(t *testing.T) {
	if err := quick.Check(func(raw [6]byte) bool {
		a := Addr(raw)
		text, _ := a.MarshalText()
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
		return a.String() == want && string(text) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseMatchesScanf: Parse accepts what parseScanf accepts, with the
// same address or the same error. Seeds are in
// testdata/fuzz/FuzzParseMatchesScanf.
func FuzzParseMatchesScanf(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		if diff := sameParse(s); diff != "" {
			t.Fatal(diff)
		}
	})
}
