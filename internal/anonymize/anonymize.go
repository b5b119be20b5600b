// Package anonymize implements the study's privacy transforms (§3.2.2,
// §3.3): MAC addresses keep their OUI but have the lower 24 bits hashed;
// domain names outside the 200-entry whitelist are replaced by opaque
// digests; and IP addresses are obfuscated with a prefix-preserving keyed
// permutation so subnet structure (LAN vs WAN, shared /24s) survives while
// identities do not.
//
// All transforms are deterministic under one Policy so a device or domain
// keeps a stable pseudonym across a study period, which is what makes
// longitudinal per-device analysis possible on anonymized data.
package anonymize

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"strings"

	"natpeek/internal/domains"
	"natpeek/internal/mac"
)

// Policy bundles the keyed transforms for one study period.
type Policy struct {
	macs *mac.Anonymizer
	key  []byte
}

// New returns a Policy keyed by key. Two policies with the same key
// produce identical pseudonyms.
func New(key []byte) *Policy {
	return &Policy{
		macs: mac.NewAnonymizer(key),
		key:  append([]byte(nil), key...),
	}
}

// MAC anonymizes a hardware address (OUI preserved, NIC hashed).
func (p *Policy) MAC(a mac.Addr) mac.Addr { return p.macs.Anonymize(a) }

// MACCacheSize returns the number of memoized MAC pseudonyms (one per
// distinct device seen under this policy) — exported by the capture
// pipeline as its anonymization-cache gauge.
func (p *Policy) MACCacheSize() int { return p.macs.CacheSize() }

// Domain returns the name unchanged when it (or a parent) is whitelisted,
// and an opaque stable token ("anon-<12 hex>") otherwise. The paper:
// "We anonymize traffic to any domain name that is not in the Alexa top
// 200 or otherwise explicitly whitelisted by the user."
func (p *Policy) Domain(name string) string {
	return p.DomainWith(name, nil)
}

// DomainWith is Domain with per-user additions to the whitelist (users
// could whitelist extra domains through the router's web UI).
func (p *Policy) DomainWith(name string, userWhitelist []string) string {
	n := strings.ToLower(strings.TrimSuffix(strings.TrimSpace(name), "."))
	if w := domains.Whitelisted(n); w != "" {
		return n
	}
	for _, u := range userWhitelist {
		u = strings.ToLower(strings.TrimSuffix(u, "."))
		if n == u || strings.HasSuffix(n, "."+u) {
			return n
		}
	}
	h := p.hash([]byte("domain:" + n))
	return "anon-" + hex.EncodeToString(h[:6])
}

// IsAnonymized reports whether a domain string is an opaque token produced
// by Domain.
func IsAnonymized(domain string) bool { return strings.HasPrefix(domain, "anon-") }

// IP obfuscates an address with a prefix-preserving keyed transform: two
// addresses sharing an n-bit prefix map to outputs sharing an n-bit
// prefix. Loopback and unspecified addresses pass through unchanged so
// diagnostics stay readable.
func (p *Policy) IP(a netip.Addr) netip.Addr {
	if !a.IsValid() || a.IsLoopback() || a.IsUnspecified() {
		return a
	}
	if a.Is4() {
		b := a.As4()
		out := p.prefixPreserve(b[:], 32)
		return netip.AddrFrom4([4]byte(out))
	}
	b := a.As16()
	out := p.prefixPreserve(b[:], 128)
	return netip.AddrFrom16([16]byte(out))
}

// prefixPreserve implements a Crypto-PAn-style bitwise walk: bit i of the
// output flips based on a PRF of the first i input bits, so shared
// prefixes stay shared and diverging bits diverge pseudorandomly.
func (p *Policy) prefixPreserve(in []byte, bits int) []byte {
	out := make([]byte, len(in))
	copy(out, in)
	for i := 0; i < bits; i++ {
		// PRF over the (i)-bit prefix of the input.
		prefix := make([]byte, len(in)+1)
		copy(prefix, in)
		// Zero the bits from i onward.
		for b := i; b < bits; b++ {
			prefix[b/8] &^= 1 << (7 - b%8)
		}
		prefix[len(in)] = byte(i)
		h := p.hash(prefix)
		if h[0]&1 == 1 {
			out[i/8] ^= 1 << (7 - i%8)
		}
	}
	return out
}

func (p *Policy) hash(data []byte) [32]byte {
	m := hmac.New(sha256.New, p.key)
	m.Write(data)
	var out [32]byte
	copy(out[:], m.Sum(nil))
	return out
}
