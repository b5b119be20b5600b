// Package mac implements the MAC-address handling the paper's data
// pipeline relies on: parsing/formatting, OUI (top-24-bit) extraction for
// manufacturer lookup, and the privacy transform the study applied —
// "anonymize the lower half of each address, which allows us to identify
// manufacturers without identifying specific devices" (§3.2.2).
package mac

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// Addr is a 48-bit MAC address.
type Addr [6]byte

// Parse parses a MAC address in colon-, dash- or dot-separated hex form:
// six octets of two bytes each. An octet is two hex digits, or, as
// fmt.Sscanf's %02x reads it, one hex digit then any other byte, or a
// space, tab, \v, \f or \r then one hex digit.
func Parse(s string) (Addr, error) {
	var a Addr
	t := strings.TrimSpace(s)
	seps := 0
	for i := 0; i < len(t); i++ {
		if isSep(t[i]) {
			seps++
		}
	}
	if seps != 5 {
		return a, fmt.Errorf("mac: %q: want 6 octets, got %d", s, seps+1)
	}
	for i, start := 0, 0; i < 6; i++ {
		end := start
		for end < len(t) && !isSep(t[end]) {
			end++
		}
		p, ok := t[start:end], false
		if len(p) == 2 {
			a[i], ok = octet(p[0], p[1])
		}
		if !ok {
			return a, fmt.Errorf("mac: %q: bad octet %q", s, p)
		}
		start = end + 1
	}
	return a, nil
}

func isSep(c byte) bool { return c == ':' || c == '-' || c == '.' }

// unhex maps a hex digit to its value and every other byte to 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := range 16 {
		t[hexDigits[i]], t["0123456789ABCDEF"[i]] = byte(i), byte(i)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// octet reads a two-byte octet the way fmt.Sscanf's %02x does.
func octet(c0, c1 byte) (byte, bool) {
	h0, h1 := unhex[c0], unhex[c1]
	switch {
	case h0 <= 0xf && h1 <= 0xf:
		return h0<<4 | h1, true
	case h0 <= 0xf:
		return h0, true
	case h1 <= 0xf && (c0 == ' ' || c0 == '\t' || c0 == '\v' || c0 == '\f' || c0 == '\r'):
		return h1, true
	}
	return 0, false
}

// MustParse parses s or panics. For tests and embedded tables.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String formats the address as lower-case colon-separated hex.
func (a Addr) String() string {
	var b [17]byte
	for i, o := range a {
		b[3*i], b[3*i+1] = hexDigits[o>>4], hexDigits[o&0xf]
		if i < 5 {
			b[3*i+2] = ':'
		}
	}
	return string(b[:])
}

// MarshalText implements encoding.TextMarshaler (JSON/CSV friendliness).
func (a Addr) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Addr) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// OUI returns the top 24 bits — the organizationally unique identifier
// that maps to a manufacturer.
func (a Addr) OUI() uint32 {
	return uint32(a[0])<<16 | uint32(a[1])<<8 | uint32(a[2])
}

// IsZero reports whether the address is all zero.
func (a Addr) IsZero() bool { return a == Addr{} }

// FromOUI builds an address from a 24-bit OUI and a 24-bit NIC portion.
func FromOUI(oui uint32, nic uint32) Addr {
	return Addr{
		byte(oui >> 16), byte(oui >> 8), byte(oui),
		byte(nic >> 16), byte(nic >> 8), byte(nic),
	}
}

// Anonymizer applies the paper's MAC anonymization: it keeps the OUI
// intact and replaces the NIC portion with a keyed hash of itself, so the
// same device always maps to the same pseudonym within one study but the
// physical identity is not recoverable without the key.
type Anonymizer struct {
	key []byte

	// A home sees a handful of distinct devices but the capture path
	// anonymizes the device MAC of every frame, so the HMAC result is
	// memoized. The cache is unbounded by design: its cardinality is the
	// number of distinct devices behind one gateway (tens, not millions).
	mu    sync.RWMutex
	cache map[Addr]Addr
}

// NewAnonymizer returns an Anonymizer keyed by key. Distinct keys produce
// unlinkable pseudonym spaces (e.g. one key per study period).
func NewAnonymizer(key []byte) *Anonymizer {
	return &Anonymizer{key: append([]byte(nil), key...), cache: make(map[Addr]Addr)}
}

// Anonymize returns the address with its lower 24 bits replaced by an
// HMAC-SHA256-derived pseudonym. The OUI — and therefore manufacturer
// lookup — is preserved. Anonymize is deterministic for a fixed key and
// safe for concurrent use.
func (z *Anonymizer) Anonymize(a Addr) Addr {
	z.mu.RLock()
	out, ok := z.cache[a]
	z.mu.RUnlock()
	if ok {
		return out
	}
	mac := hmac.New(sha256.New, z.key)
	mac.Write(a[:])
	sum := mac.Sum(nil)
	nic := binary.BigEndian.Uint32(sum[:4]) & 0x00ffffff
	out = FromOUI(a.OUI(), nic)
	// Preserve the unicast/global bits of the original OUI; hashing only
	// touched the NIC so nothing to fix — but keep the invariant explicit.
	out[0] = a[0]
	z.mu.Lock()
	z.cache[a] = out
	z.mu.Unlock()
	return out
}

// CacheSize returns the number of memoized pseudonyms — the telemetry
// layer exports it as the anonymization cache gauge.
func (z *Anonymizer) CacheSize() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.cache)
}
