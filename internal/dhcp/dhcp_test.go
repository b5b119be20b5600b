package dhcp

import (
	"net/netip"
	"testing"
	"time"

	"natpeek/internal/mac"
)

var t0 = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)

func newServer() *Server {
	return NewServer(netip.MustParsePrefix("192.168.1.0/24"), time.Hour)
}

func hw(n int) mac.Addr {
	return mac.FromOUI(0xa4b197, uint32(n))
}

func TestGatewayIsFirstUsable(t *testing.T) {
	// 192.168.1.1 is the gateway's own address, so the first lease is .2.
	s := newServer()
	l, err := s.Lease(hw(1), "", t0)
	if err != nil || l.IP != netip.MustParseAddr("192.168.1.2") {
		t.Fatalf("first lease = %v, %v; want 192.168.1.2", l, err)
	}
}

func TestLeaseAssignsDistinctAddresses(t *testing.T) {
	s := newServer()
	seen := map[netip.Addr]bool{}
	for i := 0; i < 50; i++ {
		l, err := s.Lease(hw(i), "", t0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l.IP] {
			t.Fatalf("duplicate IP %v", l.IP)
		}
		if !s.Prefix().Contains(l.IP) {
			t.Fatalf("IP %v outside subnet", l.IP)
		}
		if l.IP == netip.MustParseAddr("192.168.1.1") {
			t.Fatal("gateway address leased")
		}
		seen[l.IP] = true
	}
}

func TestRenewalKeepsAddress(t *testing.T) {
	s := newServer()
	l1, _ := s.Lease(hw(1), "laptop", t0)
	l2, err := s.Lease(hw(1), "", t0.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if l1.IP != l2.IP {
		t.Fatal("renewal changed address")
	}
	if l2.Hostname != "laptop" {
		t.Fatal("hostname lost on renewal")
	}
	if !l2.Expiry.Equal(t0.Add(30*time.Minute + time.Hour)) {
		t.Fatalf("expiry = %v", l2.Expiry)
	}
}

func TestRelease(t *testing.T) {
	s := newServer()
	s.Lease(hw(1), "", t0)
	s.Release(hw(1))
	if s.Count() != 0 {
		t.Fatal("count wrong after release")
	}
}

func TestExpire(t *testing.T) {
	s := newServer()
	s.Lease(hw(1), "", t0)
	s.Lease(hw(2), "", t0.Add(90*time.Minute)) // expires at t0+2h30m
	n := s.Expire(t0.Add(2 * time.Hour))
	if n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	if s.Count() != 1 {
		t.Fatalf("%d leases left, want the unexpired one", s.Count())
	}
}

func TestPoolExhaustionAndReclaim(t *testing.T) {
	s := NewServer(netip.MustParsePrefix("10.0.0.0/29"), time.Hour) // gw 10.0.0.1, usable .2-.6
	var leased []mac.Addr
	for i := 0; ; i++ {
		_, err := s.Lease(hw(i), "", t0)
		if err != nil {
			break
		}
		leased = append(leased, hw(i))
		if i > 10 {
			t.Fatal("never exhausted")
		}
	}
	if len(leased) != 5 {
		t.Fatalf("leased %d addrs in a /29, want 5", len(leased))
	}
	// After expiry, new devices reclaim old addresses.
	l, err := s.Lease(hw(100), "", t0.Add(3*time.Hour))
	if err != nil {
		t.Fatalf("reclaim failed: %v", err)
	}
	if !s.Prefix().Contains(l.IP) {
		t.Fatal("reclaimed IP outside subnet")
	}
}

func TestBroadcastNeverLeased(t *testing.T) {
	s := NewServer(netip.MustParsePrefix("10.0.0.0/29"), time.Hour)
	for i := 0; i < 5; i++ {
		l, err := s.Lease(hw(i), "", t0)
		if err != nil {
			t.Fatal(err)
		}
		if l.IP == netip.MustParseAddr("10.0.0.7") {
			t.Fatal("broadcast address leased")
		}
	}
}

func TestDefaultLeaseDuration(t *testing.T) {
	s := NewServer(netip.MustParsePrefix("192.168.1.0/24"), 0)
	l, _ := s.Lease(hw(1), "", t0)
	if !l.Expiry.Equal(t0.Add(24 * time.Hour)) {
		t.Fatalf("default expiry = %v", l.Expiry)
	}
}
