// Package geo embeds the deployment's country roster (Table 1) and the
// per-capita GDP (PPP) figures the paper uses to split countries into
// "developed" (top-50 GDP per capita) and "developing" groups and to
// draw Fig. 5's scatter plot.
package geo

import (
	"sort"
	"time"
)

// Country is one deployment country.
type Country struct {
	// Code is the ISO 3166-1 alpha-2 code the paper's Fig. 5 labels use.
	Code string
	Name string
	// GDPPPP is per-capita GDP at purchasing power parity, international
	// dollars (IMF WEO, as Fig. 5's x-axis).
	GDPPPP float64
	// Developed follows the paper's top-50-GDP-per-capita rule.
	Developed bool
	// Routers is the deployment count from Table 1.
	Routers int
	// UTCOffset is a representative local-time offset, used to place
	// diurnal behaviour in local hours (Fig. 6's shading, Fig. 13).
	UTCOffset time.Duration
}

// table reproduces Table 1 (90 developed + 36 developing = 126 routers in
// 19 countries) with period-appropriate GDP figures.
var table = []Country{
	// Developed.
	{"US", "United States", 50000, true, 63, -5 * time.Hour},
	{"GB", "United Kingdom", 36000, true, 12, 0},
	{"NL", "Netherlands", 46000, true, 3, time.Hour},
	{"CA", "Canada", 42000, true, 2, -5 * time.Hour},
	{"DE", "Germany", 43000, true, 2, time.Hour},
	{"IE", "Ireland", 45000, true, 2, 0},
	{"JP", "Japan", 35500, true, 2, 9 * time.Hour},
	{"SG", "Singapore", 62000, true, 2, 8 * time.Hour},
	{"FR", "France", 36500, true, 1, time.Hour},
	{"IT", "Italy", 34000, true, 1, time.Hour},
	// Developing.
	{"IN", "India", 5000, false, 12, 5*time.Hour + 30*time.Minute},
	{"ZA", "South Africa", 12500, false, 10, 2 * time.Hour},
	{"PK", "Pakistan", 4300, false, 5, 5 * time.Hour},
	{"BR", "Brazil", 15000, false, 2, -3 * time.Hour},
	{"CN", "China", 11000, false, 2, 8 * time.Hour},
	{"MX", "Mexico", 16500, false, 2, -6 * time.Hour},
	{"ID", "Indonesia", 9500, false, 1, 7 * time.Hour},
	{"MY", "Malaysia", 22000, false, 1, 8 * time.Hour},
	{"TH", "Thailand", 14000, false, 1, 7 * time.Hour},
}

var byCode = func() map[string]Country {
	m := make(map[string]Country, len(table))
	for _, c := range table {
		m[c.Code] = c
	}
	return m
}()

// All returns the roster sorted by code.
func All() []Country {
	out := append([]Country(nil), table...)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Lookup returns the country for an ISO code.
func Lookup(code string) (Country, bool) {
	c, ok := byCode[code]
	return c, ok
}

// Developed returns the developed-group countries, sorted by code.
func Developed() []Country { return filter(true) }

// Developing returns the developing-group countries, sorted by code.
func Developing() []Country { return filter(false) }

func filter(dev bool) []Country {
	var out []Country
	for _, c := range All() {
		if c.Developed == dev {
			out = append(out, c)
		}
	}
	return out
}
