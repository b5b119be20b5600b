package anonymize

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"natpeek/internal/mac"
)

func TestDomainWhitelistedPassesThrough(t *testing.T) {
	p := New([]byte("k"))
	for _, d := range []string{"google.com", "www.google.com", "NETFLIX.com", "cdn.hulu.com."} {
		got := p.Domain(d)
		if IsAnonymized(got) {
			t.Errorf("whitelisted %q anonymized to %q", d, got)
		}
		if got != strings.ToLower(strings.TrimSuffix(d, ".")) {
			t.Errorf("Domain(%q) = %q", d, got)
		}
	}
}

func TestDomainUnlistedAnonymized(t *testing.T) {
	p := New([]byte("k"))
	got := p.Domain("very-private-site.example")
	if !IsAnonymized(got) {
		t.Fatalf("unlisted domain not anonymized: %q", got)
	}
	if got != p.Domain("very-private-site.example") {
		t.Fatal("anonymization not stable")
	}
	if got == p.Domain("other-site.example") {
		t.Fatal("distinct domains collided")
	}
}

func TestDomainUserWhitelist(t *testing.T) {
	p := New([]byte("k"))
	got := p.DomainWith("tools.myisp.example", []string{"myisp.example"})
	if IsAnonymized(got) {
		t.Fatalf("user-whitelisted domain anonymized: %q", got)
	}
	// Suffix matching must not be fooled by lookalikes.
	if !IsAnonymized(p.DomainWith("notmyisp.example", []string{"myisp.example"})) {
		t.Fatal("lookalike passed whitelist")
	}
}

func TestDomainKeysUnlinkable(t *testing.T) {
	a := New([]byte("period-1")).Domain("secret.example")
	b := New([]byte("period-2")).Domain("secret.example")
	if a == b {
		t.Fatal("different keys produced identical domain tokens")
	}
}

func TestMACPreservesOUI(t *testing.T) {
	p := New([]byte("k"))
	a := mac.MustParse("a4:b1:97:01:02:03")
	out := p.MAC(a)
	if out.OUI() != a.OUI() {
		t.Fatal("OUI changed")
	}
	if out == a { // OUI equal, so only the NIC could differ
		t.Fatal("NIC unchanged")
	}
}

func TestIPPrefixPreserving(t *testing.T) {
	p := New([]byte("k"))
	a := p.IP(netip.MustParseAddr("203.0.113.7"))
	b := p.IP(netip.MustParseAddr("203.0.113.99"))
	c := p.IP(netip.MustParseAddr("198.51.100.7"))
	a4, b4, c4 := a.As4(), b.As4(), c.As4()
	// Same /24 stays same /24.
	if a4[0] != b4[0] || a4[1] != b4[1] || a4[2] != b4[2] {
		t.Fatalf("shared /24 broken: %v vs %v", a, b)
	}
	if a4[3] == b4[3] {
		t.Fatal("distinct hosts collided in last octet")
	}
	// Different /8 should (with overwhelming probability) diverge early.
	if a4 == c4 {
		t.Fatal("unrelated addresses mapped identically")
	}
}

func TestIPPrefixPropertyPairwise(t *testing.T) {
	p := New([]byte("prefix-key"))
	sharedLen := func(x, y [4]byte) int {
		for i := 0; i < 32; i++ {
			bx := x[i/8] >> (7 - i%8) & 1
			by := y[i/8] >> (7 - i%8) & 1
			if bx != by {
				return i
			}
		}
		return 32
	}
	if err := quick.Check(func(x, y [4]byte) bool {
		// Loopback and unspecified addresses pass through untransformed
		// (see Policy.IP), so the prefix property doesn't apply to them.
		if x[0] == 127 || y[0] == 127 || (x == [4]byte{}) || (y == [4]byte{}) {
			return true
		}
		ax, ay := netip.AddrFrom4(x), netip.AddrFrom4(y)
		ox, oy := p.IP(ax).As4(), p.IP(ay).As4()
		// Exact property: shared prefix length is preserved exactly,
		// because output bit i depends only on input bits < i plus input
		// bit i.
		return sharedLen(x, y) == sharedLen(ox, oy)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIPDeterministicAndKeyed(t *testing.T) {
	a := netip.MustParseAddr("10.1.2.3")
	p1, p2 := New([]byte("x")), New([]byte("x"))
	if p1.IP(a) != p2.IP(a) {
		t.Fatal("same key, different outputs")
	}
	if p1.IP(a) == New([]byte("y")).IP(a) {
		t.Fatal("different keys, same output")
	}
}

func TestIPSpecialAddressesPassThrough(t *testing.T) {
	p := New([]byte("k"))
	for _, s := range []string{"127.0.0.1", "0.0.0.0", "::1", "::"} {
		a := netip.MustParseAddr(s)
		if p.IP(a) != a {
			t.Errorf("special address %v transformed", a)
		}
	}
	var invalid netip.Addr
	if p.IP(invalid) != invalid {
		t.Error("invalid addr transformed")
	}
}

func TestIPv6Supported(t *testing.T) {
	p := New([]byte("k"))
	a := netip.MustParseAddr("2001:db8::1")
	b := netip.MustParseAddr("2001:db8::2")
	oa, ob := p.IP(a), p.IP(b)
	if !oa.Is6() || oa == a {
		t.Fatal("v6 not transformed")
	}
	oa16, ob16 := oa.As16(), ob.As16()
	for i := 0; i < 8; i++ { // shared /64 must survive
		if oa16[i] != ob16[i] {
			t.Fatal("shared /64 broken")
		}
	}
}
