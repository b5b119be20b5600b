package main

// Bringing the system under test up and down, in-process: real loopback
// listeners, real segment files under a scratch directory.

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/geo"
	"natpeek/internal/segment"
)

const loopback = "127.0.0.1:0"

func openStore(dir string) (*segment.Store, error) {
	return segment.Open(segment.Options{Dir: dir, FlushRows: flushRows})
}

// system is what a workload ingests into: one collector, or a front with
// nodes behind it.
type system struct {
	base   string // upload API root
	dirs   []string
	stores []*segment.Store

	srv   *collector.Server  // single-server systems
	dash  *figures.Dashboard // mounted on srv when asked for
	front *cluster.Front
	nodes []*cluster.Node
}

// startSingle starts one segment-backed collector, optionally with the
// live dashboard mounted on its mux.
func startSingle(dir string, dashboard bool) (*system, error) {
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	srv, err := collector.NewServer(loopback, loopback, st)
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &system{base: "http://" + srv.HTTPAddr(), dirs: []string{dir}, stores: []*segment.Store{st}, srv: srv}
	if dashboard {
		if s.dash, err = figures.NewDashboard(st, figures.DefaultWindows()); err != nil {
			s.close()
			return nil, err
		}
		s.dash.Register(srv.Mux())
	}
	return s, nil
}

// startCluster starts n segment-backed nodes and a front with the given
// replication factor, and waits until the front sees every node alive.
func startCluster(dir string, n, replication int) (*system, error) {
	s := &system{}
	var peers []string
	for i := 0; i < n; i++ {
		if _, err := s.addNode(dir, peers, false); err != nil {
			s.close()
			return nil, err
		}
		peers = append(peers, s.nodes[i].CtrlAddr())
	}
	front, err := cluster.NewFront(cluster.FrontConfig{ID: "front-0",
		UDPAddr: loopback, HTTPAddr: loopback, CtrlAddr: loopback,
		Peers: peers, Replication: replication, Gossip: gossip})
	if err != nil {
		s.close()
		return nil, err
	}
	s.front, s.base = front, "http://"+front.HTTPAddr()
	if _, err := s.converged(10 * time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// addNode starts the next node of the cluster over its own store.
func (s *system) addNode(dir string, peers []string, joining bool) (*cluster.Node, error) {
	i := len(s.nodes)
	nodeDir := filepath.Join(dir, fmt.Sprintf("node-%d", i))
	st, err := openStore(nodeDir)
	if err != nil {
		return nil, err
	}
	nd, err := cluster.NewNode(cluster.NodeConfig{ID: fmt.Sprintf("node-%d", i),
		UDPAddr: loopback, HTTPAddr: loopback, CtrlAddr: loopback,
		Peers: append([]string(nil), peers...), Gossip: gossip, Store: st, Joining: joining})
	if err != nil {
		st.Close()
		return nil, err
	}
	s.nodes = append(s.nodes, nd)
	s.stores = append(s.stores, st)
	s.dirs = append(s.dirs, nodeDir)
	return nd, nil
}

// converged waits until every member's view (front and nodes) holds all
// nodes alive, and reports how long that took.
func (s *system) converged(limit time.Duration) (time.Duration, error) {
	allAlive := func(view []cluster.MemberView) bool {
		alive := 0
		for _, mv := range view {
			if mv.Role == cluster.RoleNode && mv.State == cluster.StateAlive {
				alive++
			}
		}
		return alive == len(s.nodes)
	}
	t0 := time.Now()
	for {
		ok := allAlive(s.front.View())
		for _, nd := range s.nodes {
			ok = ok && allAlive(nd.View())
		}
		if ok {
			return time.Since(t0), nil
		}
		if time.Since(t0) > limit {
			return 0, fmt.Errorf("cluster membership did not converge to %d nodes", len(s.nodes))
		}
		time.Sleep(time.Millisecond)
	}
}

// rowCounts sums the stores' row counts.
func (s *system) rowCounts() dataset.RowCounts {
	var rc dataset.RowCounts
	for _, st := range s.stores {
		rc = sumCounts(rc, st.RowCounts())
	}
	return rc
}

// flush makes every ingested row durable.
func (s *system) flush() error {
	for _, st := range s.stores {
		if err := st.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// settle flushes and gives every store one more compaction pass (a no-op
// unless more than CompactAt segments are live), so the next phase, and
// the bytes on disk, start from a state the rows decide.
func (s *system) settle() error {
	if err := s.flush(); err != nil {
		return err
	}
	for _, st := range s.stores {
		if err := st.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// diskBytes is the size of the live segment files.
func (s *system) diskBytes() (int64, error) {
	var total int64
	for _, dir := range s.dirs {
		n, err := dirBytes(dir)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

// close stops listeners first, then stores (a store's Close flushes).
func (s *system) close() error {
	var errs []error
	if s.front != nil {
		errs = append(errs, s.front.Close())
	}
	for _, nd := range s.nodes {
		errs = append(errs, nd.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	for _, st := range s.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

func countryCodes() []string {
	var codes []string
	for _, c := range geo.All() {
		codes = append(codes, c.Code)
	}
	return codes
}
