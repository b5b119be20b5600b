// Package dhcp implements the home LAN's address assignment: a lease table
// mapping device MAC addresses to private IPv4 addresses inside the
// gateway's subnet. The gateway uses it for two measurement duties the
// paper depends on: counting connected devices (the Devices data set,
// hourly) and attributing captured traffic to a specific device (the
// Traffic data set is per-device because the router knows which LAN IP
// belongs to which MAC).
package dhcp

import (
	"errors"
	"net/netip"
	"time"

	"natpeek/internal/mac"
)

// ErrPoolExhausted is returned when every address is leased and none
// has expired.
var ErrPoolExhausted = errors.New("dhcp: address pool exhausted")

// Lease records one device's address assignment.
type Lease struct {
	MAC      mac.Addr
	IP       netip.Addr
	Hostname string
	Start    time.Time
	Expiry   time.Time
}

// Server is a DHCP lease table over one IPv4 subnet. It is not safe for
// concurrent use; the gateway serializes access.
type Server struct {
	prefix   netip.Prefix
	gateway  netip.Addr
	leaseDur time.Duration

	byMAC map[mac.Addr]*Lease
	byIP  map[netip.Addr]*Lease
	next  netip.Addr
}

// NewServer returns a lease table for prefix. The first usable address is
// reserved for the gateway itself. Lease duration defaults to 24h when
// leaseDur is zero, matching common home-router defaults.
func NewServer(prefix netip.Prefix, leaseDur time.Duration) *Server {
	if leaseDur <= 0 {
		leaseDur = 24 * time.Hour
	}
	gw := prefix.Addr().Next()
	return &Server{
		prefix:   prefix.Masked(),
		gateway:  gw,
		leaseDur: leaseDur,
		byMAC:    make(map[mac.Addr]*Lease),
		byIP:     make(map[netip.Addr]*Lease),
		next:     gw.Next(),
	}
}

// Prefix returns the managed subnet.
func (s *Server) Prefix() netip.Prefix { return s.prefix }

// Lease grants (or renews) an address for hw at time now. Devices keep
// their previous address across renewals — device attribution depends on
// stable bindings.
func (s *Server) Lease(hw mac.Addr, hostname string, now time.Time) (*Lease, error) {
	if l, ok := s.byMAC[hw]; ok {
		l.Expiry = now.Add(s.leaseDur)
		if hostname != "" {
			l.Hostname = hostname
		}
		return l, nil
	}
	ip, err := s.allocate(now)
	if err != nil {
		return nil, err
	}
	l := &Lease{MAC: hw, IP: ip, Hostname: hostname, Start: now, Expiry: now.Add(s.leaseDur)}
	s.byMAC[hw] = l
	s.byIP[ip] = l
	return l, nil
}

func (s *Server) allocate(now time.Time) (netip.Addr, error) {
	// First pass: scan forward from the cursor for a free address.
	start := s.next
	for {
		ip := s.next
		s.next = s.next.Next()
		if !s.prefix.Contains(s.next) {
			s.next = s.gateway.Next() // wrap
		}
		if isBroadcastIn(s.prefix, ip) {
			if s.next == start {
				break
			}
			continue
		}
		if _, taken := s.byIP[ip]; !taken {
			return ip, nil
		}
		if s.next == start {
			break
		}
	}
	// Second pass: reclaim the oldest expired lease.
	var oldest *Lease
	for _, l := range s.byMAC {
		if l.Expiry.After(now) {
			continue
		}
		if oldest == nil || l.Expiry.Before(oldest.Expiry) {
			oldest = l
		}
	}
	if oldest == nil {
		return netip.Addr{}, ErrPoolExhausted
	}
	s.release(oldest)
	return oldest.IP, nil
}

// Release frees the lease held by hw, if any.
func (s *Server) Release(hw mac.Addr) {
	if l, ok := s.byMAC[hw]; ok {
		s.release(l)
	}
}

func (s *Server) release(l *Lease) {
	delete(s.byMAC, l.MAC)
	delete(s.byIP, l.IP)
}

// Expire removes all leases whose expiry is at or before now and returns
// how many were removed.
func (s *Server) Expire(now time.Time) int {
	n := 0
	for _, l := range s.byMAC {
		if !l.Expiry.After(now) {
			s.release(l)
			n++
		}
	}
	return n
}

// Count returns the number of leases in the table (including expired ones
// not yet reclaimed).
func (s *Server) Count() int { return len(s.byMAC) }

func isBroadcastIn(p netip.Prefix, ip netip.Addr) bool {
	if !ip.Is4() {
		return false
	}
	bits := p.Bits()
	a := ip.As4()
	host := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	mask := uint32(0xffffffff) >> bits
	return host&mask == mask
}
