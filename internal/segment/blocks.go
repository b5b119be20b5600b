// Per-data-set block schemas: each data set's rows encode column-major
// in struct-field order. Decoders must tolerate arbitrary bytes — every
// column read is bounds-checked and the block CRC has already been
// verified by the caller, so errors here mean either corruption the CRC
// missed (forged whole-block rewrites) or a version we don't speak.
package segment

import (
	"time"

	"natpeek/internal/dataset"
)

func encodeUptime(rows []dataset.UptimeReport) []byte {
	var e enc
	var routers strDict
	for _, r := range rows {
		routers.encode(&e, r.RouterID)
	}
	ts := make([]time.Time, len(rows))
	for i, r := range rows {
		ts[i] = r.ReportedAt
	}
	encodeTimes(&e, ts)
	for _, r := range rows {
		e.varint(int64(r.Uptime))
	}
	return e.buf
}

func (r *Reader) uptime(rows []dataset.UptimeReport) error {
	d, err := r.block(blkUptime, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers strUndict
	for i := range rows {
		rows[i].RouterID = routers.decode(d)
	}
	decodeTimes(d, rows, func(r *dataset.UptimeReport) *time.Time { return &r.ReportedAt })
	for i := range rows {
		rows[i].Uptime = time.Duration(d.varint())
	}
	return d.err
}

func encodeCapacity(rows []dataset.CapacityMeasure) []byte {
	var e enc
	var routers strDict
	for _, r := range rows {
		routers.encode(&e, r.RouterID)
	}
	ts := make([]time.Time, len(rows))
	for i, r := range rows {
		ts[i] = r.MeasuredAt
	}
	encodeTimes(&e, ts)
	for _, r := range rows {
		e.f64(r.UpBps)
	}
	for _, r := range rows {
		e.f64(r.DownBps)
	}
	return e.buf
}

func (r *Reader) capacity(rows []dataset.CapacityMeasure) error {
	d, err := r.block(blkCapacity, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers strUndict
	for i := range rows {
		rows[i].RouterID = routers.decode(d)
	}
	decodeTimes(d, rows, func(r *dataset.CapacityMeasure) *time.Time { return &r.MeasuredAt })
	for i := range rows {
		rows[i].UpBps = d.f64()
	}
	for i := range rows {
		rows[i].DownBps = d.f64()
	}
	return d.err
}

func encodeCounts(rows []dataset.DeviceCount) []byte {
	var e enc
	var routers strDict
	for _, r := range rows {
		routers.encode(&e, r.RouterID)
	}
	ts := make([]time.Time, len(rows))
	for i, r := range rows {
		ts[i] = r.At
	}
	encodeTimes(&e, ts)
	for _, r := range rows {
		e.varint(int64(r.Wired))
	}
	for _, r := range rows {
		e.varint(int64(r.W24))
	}
	for _, r := range rows {
		e.varint(int64(r.W5))
	}
	return e.buf
}

func (r *Reader) counts(rows []dataset.DeviceCount) error {
	d, err := r.block(blkCounts, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers strUndict
	for i := range rows {
		rows[i].RouterID = routers.decode(d)
	}
	decodeTimes(d, rows, func(r *dataset.DeviceCount) *time.Time { return &r.At })
	for i := range rows {
		rows[i].Wired = int(d.varint())
	}
	for i := range rows {
		rows[i].W24 = int(d.varint())
	}
	for i := range rows {
		rows[i].W5 = int(d.varint())
	}
	return d.err
}

func encodeSightings(rows []dataset.DeviceSighting) []byte {
	var e enc
	var routers strDict
	for _, r := range rows {
		routers.encode(&e, r.RouterID)
	}
	ts := make([]time.Time, len(rows))
	for i, r := range rows {
		ts[i] = r.At
	}
	encodeTimes(&e, ts)
	for _, r := range rows {
		e.mac(r.Device)
	}
	for _, r := range rows {
		e.uvarint(uint64(r.Kind))
	}
	return e.buf
}

func (r *Reader) sightings(rows []dataset.DeviceSighting) error {
	d, err := r.block(blkSightings, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers strUndict
	for i := range rows {
		rows[i].RouterID = routers.decode(d)
	}
	decodeTimes(d, rows, func(r *dataset.DeviceSighting) *time.Time { return &r.At })
	for i := range rows {
		rows[i].Device = d.mac()
	}
	for i := range rows {
		rows[i].Kind = dataset.ConnKind(d.uvarint())
	}
	return d.err
}

func encodeWiFi(rows []dataset.WiFiScan) []byte {
	var e enc
	var routers, bands strDict
	for _, r := range rows {
		routers.encode(&e, r.RouterID)
	}
	ts := make([]time.Time, len(rows))
	for i, r := range rows {
		ts[i] = r.At
	}
	encodeTimes(&e, ts)
	for _, r := range rows {
		bands.encode(&e, r.Band)
	}
	for _, r := range rows {
		e.varint(int64(r.Channel))
	}
	for _, r := range rows {
		e.varint(int64(r.VisibleAPs))
	}
	for _, r := range rows {
		e.varint(int64(r.Clients))
	}
	return e.buf
}

func (r *Reader) wifi(rows []dataset.WiFiScan) error {
	d, err := r.block(blkWiFi, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers, bands strUndict
	for i := range rows {
		rows[i].RouterID = routers.decode(d)
	}
	decodeTimes(d, rows, func(r *dataset.WiFiScan) *time.Time { return &r.At })
	for i := range rows {
		rows[i].Band = bands.decode(d)
	}
	for i := range rows {
		rows[i].Channel = int(d.varint())
	}
	for i := range rows {
		rows[i].VisibleAPs = int(d.varint())
	}
	for i := range rows {
		rows[i].Clients = int(d.varint())
	}
	return d.err
}

func encodeFlows(rows []dataset.FlowRecord) []byte {
	var e enc
	var routers, domains, protos strDict
	for _, r := range rows {
		routers.encode(&e, r.RouterID)
	}
	for _, r := range rows {
		e.mac(r.Device)
	}
	for _, r := range rows {
		domains.encode(&e, r.Domain)
	}
	for _, r := range rows {
		protos.encode(&e, r.Proto)
	}
	ts := make([]time.Time, len(rows))
	for i, r := range rows {
		ts[i] = r.First
	}
	encodeTimes(&e, ts)
	for i, r := range rows {
		ts[i] = r.Last
	}
	encodeTimes(&e, ts)
	for _, fld := range []func(*dataset.FlowRecord) int64{
		func(f *dataset.FlowRecord) int64 { return f.UpBytes },
		func(f *dataset.FlowRecord) int64 { return f.DownBytes },
		func(f *dataset.FlowRecord) int64 { return f.UpPkts },
		func(f *dataset.FlowRecord) int64 { return f.DownPkts },
		func(f *dataset.FlowRecord) int64 { return f.Conns },
	} {
		for i := range rows {
			e.varint(fld(&rows[i]))
		}
	}
	return e.buf
}

func (r *Reader) flows(rows []dataset.FlowRecord) error {
	d, err := r.block(blkFlows, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers, domains, protos strUndict
	for i := range rows {
		rows[i].RouterID = routers.decode(d)
	}
	for i := range rows {
		rows[i].Device = d.mac()
	}
	for i := range rows {
		rows[i].Domain = domains.decode(d)
	}
	for i := range rows {
		rows[i].Proto = protos.decode(d)
	}
	decodeTimes(d, rows, func(r *dataset.FlowRecord) *time.Time { return &r.First })
	decodeTimes(d, rows, func(r *dataset.FlowRecord) *time.Time { return &r.Last })
	for i := range rows {
		rows[i].UpBytes = d.varint()
	}
	for i := range rows {
		rows[i].DownBytes = d.varint()
	}
	for i := range rows {
		rows[i].UpPkts = d.varint()
	}
	for i := range rows {
		rows[i].DownPkts = d.varint()
	}
	for i := range rows {
		rows[i].Conns = d.varint()
	}
	return d.err
}

func encodeThroughput(rows []dataset.ThroughputSample) []byte {
	var e enc
	var routers, dirs strDict
	for _, r := range rows {
		routers.encode(&e, r.RouterID)
	}
	ts := make([]time.Time, len(rows))
	for i, r := range rows {
		ts[i] = r.Minute
	}
	encodeTimes(&e, ts)
	for _, r := range rows {
		dirs.encode(&e, r.Dir)
	}
	for _, r := range rows {
		e.f64(r.PeakBps)
	}
	for _, r := range rows {
		e.varint(r.TotalBytes)
	}
	return e.buf
}

func (r *Reader) throughput(rows []dataset.ThroughputSample) error {
	d, err := r.block(blkThroughput, len(rows))
	if err != nil || d == nil {
		return err
	}
	var routers, dirs strUndict
	for i := range rows {
		rows[i].RouterID = routers.decode(d)
	}
	decodeTimes(d, rows, func(r *dataset.ThroughputSample) *time.Time { return &r.Minute })
	for i := range rows {
		rows[i].Dir = dirs.decode(d)
	}
	for i := range rows {
		rows[i].PeakBps = d.f64()
	}
	for i := range rows {
		rows[i].TotalBytes = d.varint()
	}
	return d.err
}

func encodeKeys(keys []Key) []byte {
	var e enc
	var routers strDict
	for _, k := range keys {
		routers.encode(&e, k.Router)
	}
	for _, k := range keys {
		e.str(k.Key)
	}
	return e.buf
}

func decodeKeys(d *dec, n int) ([]Key, error) {
	out := make([]Key, n)
	var routers strUndict
	for i := range out {
		out[i].Router = routers.decode(d)
	}
	for i := range out {
		out[i].Key = d.str()
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}
