package geo

import "testing"

func TestTable1Totals(t *testing.T) {
	var dev, dvg int
	for _, c := range All() {
		if c.Developed {
			dev += c.Routers
		} else {
			dvg += c.Routers
		}
	}
	if dev != 90 {
		t.Fatalf("developed routers = %d, Table 1 says 90", dev)
	}
	if dvg != 36 {
		t.Fatalf("developing routers = %d, Table 1 says 36", dvg)
	}
	if len(All()) != 19 {
		t.Fatalf("countries = %d, paper says 19", len(All()))
	}
}

func TestGroupSizes(t *testing.T) {
	if len(Developed()) != 10 {
		t.Fatalf("developed countries = %d, Table 1 lists 10", len(Developed()))
	}
	if len(Developing()) != 9 {
		t.Fatalf("developing countries = %d, Table 1 lists 9", len(Developing()))
	}
}

func TestKeyCountries(t *testing.T) {
	us, ok := Lookup("US")
	if !ok || us.Routers != 63 || !us.Developed {
		t.Fatalf("US entry %+v", us)
	}
	in, ok := Lookup("IN")
	if !ok || in.Routers != 12 || in.Developed {
		t.Fatalf("IN entry %+v", in)
	}
	pk, _ := Lookup("PK")
	if pk.Routers != 5 {
		t.Fatalf("PK routers = %d", pk.Routers)
	}
	if _, ok := Lookup("XX"); ok {
		t.Fatal("unknown code resolved")
	}
}

func TestGDPOrderingMatchesFig5(t *testing.T) {
	// India and Pakistan are "the two countries in our deployment with
	// the lowest per-capita GDP".
	for _, c := range All() {
		if c.Code == "IN" || c.Code == "PK" {
			continue
		}
		in, _ := Lookup("IN")
		pk, _ := Lookup("PK")
		if c.GDPPPP <= in.GDPPPP || c.GDPPPP <= pk.GDPPPP {
			t.Fatalf("%s GDP %.0f not above IN/PK", c.Code, c.GDPPPP)
		}
	}
}

func TestDevelopedMeansHigherGDP(t *testing.T) {
	minDev := 1e18
	for _, c := range Developed() {
		if c.GDPPPP < minDev {
			minDev = c.GDPPPP
		}
	}
	for _, c := range Developing() {
		if c.GDPPPP >= minDev {
			t.Fatalf("developing %s GDP %.0f overlaps developed minimum %.0f", c.Code, c.GDPPPP, minDev)
		}
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Code >= all[i].Code {
			t.Fatal("not sorted by code")
		}
	}
}

func TestCountriesWithAtLeastThreeRouters(t *testing.T) {
	// Fig. 5 plots only countries with ≥3 routers and labels NL, US, ZA,
	// GB, IN, PK.
	for _, code := range []string{"NL", "US", "ZA", "GB", "IN", "PK"} {
		c, ok := Lookup(code)
		if !ok || c.Routers < 3 {
			t.Errorf("%s should have ≥3 routers, got %+v", code, c)
		}
	}
}
