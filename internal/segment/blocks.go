// Per-data-set block schemas: each data set's rows encode column-major
// in struct-field order. Decoders must tolerate arbitrary bytes — every
// column read is bounds-checked and the block CRC has already been
// verified by the caller, so errors here mean either corruption the CRC
// missed (forged whole-block rewrites) or a version we don't speak.
package segment

import (
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
)

// rowBlocks pairs each row kind, in dataset.Kinds order, with its NPS1
// block: the block kind as stored in the footer and the column schema's
// two halves. Encode, RowsInto and the footer parser loop over it.
var rowBlocks = [dataset.NumKinds]struct {
	kind   uint64
	encode func(st *dataset.Store) []byte
	decode func(r *Reader, w *dataset.Store) error
}{
	{blkUptime, func(st *dataset.Store) []byte { return encodeUptime(st.Uptime) },
		func(r *Reader, w *dataset.Store) error { return r.uptime(w.Uptime) }},
	{blkCapacity, func(st *dataset.Store) []byte { return encodeCapacity(st.Capacity) },
		func(r *Reader, w *dataset.Store) error { return r.capacity(w.Capacity) }},
	{blkCounts, func(st *dataset.Store) []byte { return encodeCounts(st.Counts) },
		func(r *Reader, w *dataset.Store) error { return r.counts(w.Counts) }},
	{blkSightings, func(st *dataset.Store) []byte { return encodeSightings(st.Sightings) },
		func(r *Reader, w *dataset.Store) error { return r.sightings(w.Sightings) }},
	{blkWiFi, func(st *dataset.Store) []byte { return encodeWiFi(st.WiFi) },
		func(r *Reader, w *dataset.Store) error { return r.wifi(w.WiFi) }},
	{blkFlows, func(st *dataset.Store) []byte { return encodeFlows(st.Flows) },
		func(r *Reader, w *dataset.Store) error { return r.flows(w.Flows) }},
	{blkThroughput, func(st *dataset.Store) []byte { return encodeThroughput(st.Throughput) },
		func(r *Reader, w *dataset.Store) error { return r.throughput(w.Throughput) }},
}

// Time-column accessors, one per column, shared by a kind's encoder and
// decoder.
func uptimeAt(r *dataset.UptimeReport) *time.Time         { return &r.ReportedAt }
func capacityAt(r *dataset.CapacityMeasure) *time.Time    { return &r.MeasuredAt }
func countAt(r *dataset.DeviceCount) *time.Time           { return &r.At }
func sightingAt(r *dataset.DeviceSighting) *time.Time     { return &r.At }
func wifiAt(r *dataset.WiFiScan) *time.Time               { return &r.At }
func flowFirst(r *dataset.FlowRecord) *time.Time          { return &r.First }
func flowLast(r *dataset.FlowRecord) *time.Time           { return &r.Last }
func throughputAt(r *dataset.ThroughputSample) *time.Time { return &r.Minute }

func encodeUptime(rows []dataset.UptimeReport) []byte {
	var e codec.Enc
	var routers codec.Dict
	for _, r := range rows {
		routers.Put(&e, r.RouterID)
	}
	encodeTimes(&e, rows, uptimeAt)
	for _, r := range rows {
		e.Varint(int64(r.Uptime))
	}
	return e.Buf
}

func (r *Reader) uptime(rows []dataset.UptimeReport) error {
	d, err := r.block(blkUptime, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers codec.Undict
	for i := range rows {
		rows[i].RouterID = routers.Get(d)
	}
	decodeTimes(d, rows, uptimeAt)
	for i := range rows {
		rows[i].Uptime = time.Duration(d.Varint())
	}
	return corrupt(d)
}

func encodeCapacity(rows []dataset.CapacityMeasure) []byte {
	var e codec.Enc
	var routers codec.Dict
	for _, r := range rows {
		routers.Put(&e, r.RouterID)
	}
	encodeTimes(&e, rows, capacityAt)
	for _, r := range rows {
		e.F64(r.UpBps)
	}
	for _, r := range rows {
		e.F64(r.DownBps)
	}
	return e.Buf
}

func (r *Reader) capacity(rows []dataset.CapacityMeasure) error {
	d, err := r.block(blkCapacity, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers codec.Undict
	for i := range rows {
		rows[i].RouterID = routers.Get(d)
	}
	decodeTimes(d, rows, capacityAt)
	for i := range rows {
		rows[i].UpBps = d.F64()
	}
	for i := range rows {
		rows[i].DownBps = d.F64()
	}
	return corrupt(d)
}

func encodeCounts(rows []dataset.DeviceCount) []byte {
	var e codec.Enc
	var routers codec.Dict
	for _, r := range rows {
		routers.Put(&e, r.RouterID)
	}
	encodeTimes(&e, rows, countAt)
	for _, r := range rows {
		e.Varint(int64(r.Wired))
	}
	for _, r := range rows {
		e.Varint(int64(r.W24))
	}
	for _, r := range rows {
		e.Varint(int64(r.W5))
	}
	return e.Buf
}

func (r *Reader) counts(rows []dataset.DeviceCount) error {
	d, err := r.block(blkCounts, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers codec.Undict
	for i := range rows {
		rows[i].RouterID = routers.Get(d)
	}
	decodeTimes(d, rows, countAt)
	for i := range rows {
		rows[i].Wired = int(d.Varint())
	}
	for i := range rows {
		rows[i].W24 = int(d.Varint())
	}
	for i := range rows {
		rows[i].W5 = int(d.Varint())
	}
	return corrupt(d)
}

func encodeSightings(rows []dataset.DeviceSighting) []byte {
	var e codec.Enc
	var routers codec.Dict
	for _, r := range rows {
		routers.Put(&e, r.RouterID)
	}
	encodeTimes(&e, rows, sightingAt)
	for _, r := range rows {
		e.Raw(r.Device[:])
	}
	for _, r := range rows {
		e.Uvarint(uint64(r.Kind))
	}
	return e.Buf
}

func (r *Reader) sightings(rows []dataset.DeviceSighting) error {
	d, err := r.block(blkSightings, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers codec.Undict
	for i := range rows {
		rows[i].RouterID = routers.Get(d)
	}
	decodeTimes(d, rows, sightingAt)
	for i := range rows {
		d.Fill(rows[i].Device[:])
	}
	for i := range rows {
		rows[i].Kind = dataset.ConnKind(d.Uvarint())
	}
	return corrupt(d)
}

func encodeWiFi(rows []dataset.WiFiScan) []byte {
	var e codec.Enc
	var routers, bands codec.Dict
	for _, r := range rows {
		routers.Put(&e, r.RouterID)
	}
	encodeTimes(&e, rows, wifiAt)
	for _, r := range rows {
		bands.Put(&e, r.Band)
	}
	for _, r := range rows {
		e.Varint(int64(r.Channel))
	}
	for _, r := range rows {
		e.Varint(int64(r.VisibleAPs))
	}
	for _, r := range rows {
		e.Varint(int64(r.Clients))
	}
	return e.Buf
}

func (r *Reader) wifi(rows []dataset.WiFiScan) error {
	d, err := r.block(blkWiFi, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers, bands codec.Undict
	for i := range rows {
		rows[i].RouterID = routers.Get(d)
	}
	decodeTimes(d, rows, wifiAt)
	for i := range rows {
		rows[i].Band = bands.Get(d)
	}
	for i := range rows {
		rows[i].Channel = int(d.Varint())
	}
	for i := range rows {
		rows[i].VisibleAPs = int(d.Varint())
	}
	for i := range rows {
		rows[i].Clients = int(d.Varint())
	}
	return corrupt(d)
}

func encodeFlows(rows []dataset.FlowRecord) []byte {
	var e codec.Enc
	var routers, domains, protos codec.Dict
	for _, r := range rows {
		routers.Put(&e, r.RouterID)
	}
	for _, r := range rows {
		e.Raw(r.Device[:])
	}
	for _, r := range rows {
		domains.Put(&e, r.Domain)
	}
	for _, r := range rows {
		protos.Put(&e, r.Proto)
	}
	encodeTimes(&e, rows, flowFirst)
	encodeTimes(&e, rows, flowLast)
	for _, fld := range []func(*dataset.FlowRecord) int64{
		func(f *dataset.FlowRecord) int64 { return f.UpBytes },
		func(f *dataset.FlowRecord) int64 { return f.DownBytes },
		func(f *dataset.FlowRecord) int64 { return f.UpPkts },
		func(f *dataset.FlowRecord) int64 { return f.DownPkts },
		func(f *dataset.FlowRecord) int64 { return f.Conns },
	} {
		for i := range rows {
			e.Varint(fld(&rows[i]))
		}
	}
	return e.Buf
}

func (r *Reader) flows(rows []dataset.FlowRecord) error {
	d, err := r.block(blkFlows, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers, domains, protos codec.Undict
	for i := range rows {
		rows[i].RouterID = routers.Get(d)
	}
	for i := range rows {
		d.Fill(rows[i].Device[:])
	}
	for i := range rows {
		rows[i].Domain = domains.Get(d)
	}
	for i := range rows {
		rows[i].Proto = protos.Get(d)
	}
	decodeTimes(d, rows, flowFirst)
	decodeTimes(d, rows, flowLast)
	for i := range rows {
		rows[i].UpBytes = d.Varint()
	}
	for i := range rows {
		rows[i].DownBytes = d.Varint()
	}
	for i := range rows {
		rows[i].UpPkts = d.Varint()
	}
	for i := range rows {
		rows[i].DownPkts = d.Varint()
	}
	for i := range rows {
		rows[i].Conns = d.Varint()
	}
	return corrupt(d)
}

func encodeThroughput(rows []dataset.ThroughputSample) []byte {
	var e codec.Enc
	var routers, dirs codec.Dict
	for _, r := range rows {
		routers.Put(&e, r.RouterID)
	}
	encodeTimes(&e, rows, throughputAt)
	for _, r := range rows {
		dirs.Put(&e, r.Dir)
	}
	for _, r := range rows {
		e.F64(r.PeakBps)
	}
	for _, r := range rows {
		e.Varint(r.TotalBytes)
	}
	return e.Buf
}

func (r *Reader) throughput(rows []dataset.ThroughputSample) error {
	d, err := r.block(blkThroughput, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers, dirs codec.Undict
	for i := range rows {
		rows[i].RouterID = routers.Get(d)
	}
	decodeTimes(d, rows, throughputAt)
	for i := range rows {
		rows[i].Dir = dirs.Get(d)
	}
	for i := range rows {
		rows[i].PeakBps = d.F64()
	}
	for i := range rows {
		rows[i].TotalBytes = d.Varint()
	}
	return corrupt(d)
}

func encodeKeys(keys []Key) []byte {
	var e codec.Enc
	var routers codec.Dict
	for _, k := range keys {
		routers.Put(&e, k.Router)
	}
	for _, k := range keys {
		e.Str(k.Key)
	}
	return e.Buf
}

func decodeKeys(d *codec.Dec, n int) ([]Key, error) {
	out := make([]Key, n)
	var routers codec.Undict
	for i := range out {
		out[i].Router = routers.Get(d)
	}
	for i := range out {
		out[i].Key = d.Str()
	}
	if err := corrupt(d); err != nil {
		return nil, err
	}
	return out, nil
}
