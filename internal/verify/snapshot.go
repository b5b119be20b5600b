package verify

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/world"
)

// Snapshot is the normalized, diff-friendly image of a verification
// run: per-dataset row counts and content digests, plus the key
// analysis outputs the paper's figures rest on. Maps encode with sorted
// keys and floats are rounded, so two runs with the same seed produce
// byte-identical encodings.
type Snapshot struct {
	Seed  uint64     `json:"seed"`
	Homes []HomeInfo `json:"homes"`

	// Rows counts ingested rows per dataset; Digests is a SHA-256 over
	// the dataset's rows in normalized sorted order, pinning content
	// without inlining thousands of rows into the golden file.
	Rows    map[string]int    `json:"rows"`
	Digests map[string]string `json:"digests"`

	// Availability is each router's heartbeat uptime fraction over the
	// Heartbeats window (threshold 2 minutes, like §4's analysis).
	Availability map[string]float64 `json:"availability"`
	// DevicesPerHome is the distinct-device count per router from the
	// census sightings (Figure 7's raw material).
	DevicesPerHome map[string]int `json:"devices_per_home"`
	// DomainVolumes is total traffic volume per (anonymized) domain
	// across the Traffic subset (§6.3's per-domain material).
	DomainVolumes map[string]int64 `json:"domain_volumes"`
	// DirVolumes is total throughput per direction.
	DirVolumes map[string]int64 `json:"dir_volumes"`

	Accounting world.Accounting `json:"accounting"`
}

// HomeInfo summarizes one deployed home.
type HomeInfo struct {
	ID      string `json:"id"`
	Country string `json:"country"`
	Consent bool   `json:"consent"`
	Devices int    `json:"devices"`
}

// BuildSnapshot condenses a run into its golden form.
func BuildSnapshot(r *Result) *Snapshot {
	st := r.Ingested
	s := &Snapshot{
		Seed:           r.Cfg.Seed,
		Rows:           make(map[string]int),
		Digests:        make(map[string]string),
		Availability:   make(map[string]float64),
		DevicesPerHome: make(map[string]int),
		DomainVolumes:  make(map[string]int64),
		DirVolumes:     make(map[string]int64),
		Accounting:     r.World.Acct,
	}
	for _, h := range r.World.Homes {
		s.Homes = append(s.Homes, HomeInfo{
			ID:      h.Profile.ID,
			Country: r.World.Store.RouterCountry[h.Profile.ID],
			Consent: h.Consent,
			Devices: len(h.Profile.Devices),
		})
	}
	sort.Slice(s.Homes, func(i, j int) bool { return s.Homes[i].ID < s.Homes[j].ID })

	beats := 0
	var beatRows []string
	for _, id := range st.Heartbeats.Routers() {
		beats += st.Heartbeats.Count(id)
		beatRows = append(beatRows, fmt.Sprintf("%s|%d", id, st.Heartbeats.Count(id)))
		s.Availability[id] = round6(st.Heartbeats.UptimeFraction(
			id, r.World.Cfg.HeartbeatsFrom, r.World.Cfg.HeartbeatsTo, 2*time.Minute))
	}
	s.Rows["heartbeats"] = beats
	s.Digests["heartbeats"] = digestRows(beatRows)

	s.Rows["uptime"] = len(st.Uptime)
	s.Digests["uptime"] = digestJSON(st.Uptime)
	s.Rows["capacity"] = len(st.Capacity)
	s.Digests["capacity"] = digestJSON(st.Capacity)
	s.Rows["counts"] = len(st.Counts)
	s.Digests["counts"] = digestJSON(st.Counts)
	s.Rows["sightings"] = len(st.Sightings)
	s.Digests["sightings"] = digestJSON(st.Sightings)
	s.Rows["wifi"] = len(st.WiFi)
	s.Digests["wifi"] = digestJSON(st.WiFi)
	s.Rows["flows"] = len(st.Flows)
	s.Digests["flows"] = digestJSON(st.Flows)
	s.Rows["throughput"] = len(st.Throughput)
	s.Digests["throughput"] = digestJSON(st.Throughput)

	for id, n := range analysis.RollupOf(st).UniqueDevicesPerHome() {
		s.DevicesPerHome[id] = n
	}
	for _, f := range st.Flows {
		s.DomainVolumes[f.Domain] += f.UpBytes + f.DownBytes
	}
	for _, t := range st.Throughput {
		s.DirVolumes[t.Dir] += t.TotalBytes
	}
	return s
}

// Encode renders the snapshot as stable, indented JSON (encoding/json
// sorts map keys, so equal snapshots encode to equal bytes).
func (s *Snapshot) Encode() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // all field types are marshalable
	}
	return append(b, '\n')
}

func round6(f float64) float64 { return math.Round(f*1e6) / 1e6 }

// digestJSON hashes a dataset slice in normalized order: each row is
// marshaled on its own, the rows are sorted, and the sorted list is
// hashed — so the digest is independent of upload/ingest interleaving.
func digestJSON[T any](rows []T) string {
	enc := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		enc[i] = string(b)
	}
	return digestRows(enc)
}

func digestRows(rows []string) string {
	sorted := append([]string(nil), rows...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, r := range sorted {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
