// Package dag implements the explicit directed-acyclic-graph job model of
// the paper: a job is a dag of unit-size tasks, its work T1 is the number of
// vertices and its critical-path length T∞ is the number of nodes on the
// longest dependency chain. The level of a task is the length of the longest
// chain from the source node(s) to it — the quantity B-Greedy prioritises.
//
// The companion Run type executes a graph non-clairvoyantly and implements
// job.Instance, so the same simulator drives both explicit dags and the
// O(1)-per-level profile jobs of package job.
package dag

import (
	"errors"
	"fmt"
	"io"
)

// NodeID identifies a node within one Graph.
type NodeID int32

// Graph is a dag of unit tasks. Build it with AddNode/AddEdge, then call
// Finalize before using any query or executing it. A finalized graph is
// immutable.
type Graph struct {
	succs      [][]NodeID
	preds      [][]NodeID
	level      []int32
	levelWidth []int
	finalized  bool
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node and returns its id.
func (g *Graph) AddNode() NodeID {
	if g.finalized {
		panic("dag: AddNode after Finalize")
	}
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return NodeID(len(g.succs) - 1)
}

// AddNodes appends n nodes and returns their ids.
func (g *Graph) AddNodes(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	return ids
}

// AddEdge records a dependency: to cannot start until from has completed.
func (g *Graph) AddEdge(from, to NodeID) error {
	if g.finalized {
		panic("dag: AddEdge after Finalize")
	}
	n := NodeID(len(g.succs))
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("dag: edge (%d,%d) references unknown node", from, to)
	}
	if from == to {
		return fmt.Errorf("dag: self edge on node %d", from)
	}
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
	return nil
}

// MustEdge is AddEdge that panics on error, for builders and tests.
func (g *Graph) MustEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Finalize checks acyclicity, computes levels (longest path from sources) and
// per-level widths. It must be called exactly once, after which the graph is
// immutable and queryable.
func (g *Graph) Finalize() error {
	if g.finalized {
		return errors.New("dag: already finalized")
	}
	n := len(g.succs)
	if n == 0 {
		return errors.New("dag: empty graph")
	}
	// Kahn topological order, computing level = 1 + max(parent level).
	indeg := make([]int32, n)
	for v := range g.preds {
		indeg[v] = int32(len(g.preds[v]))
	}
	g.level = make([]int32, n)
	queue := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range g.succs[v] {
			if l := g.level[v] + 1; l > g.level[w] {
				g.level[w] = l
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if seen != n {
		g.level = nil
		return errors.New("dag: graph has a cycle")
	}
	maxLevel := int32(0)
	for _, l := range g.level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	g.levelWidth = make([]int, maxLevel+1)
	for _, l := range g.level {
		g.levelWidth[l]++
	}
	g.finalized = true
	return nil
}

// MustFinalize is Finalize that panics on error.
func (g *Graph) MustFinalize() *Graph {
	if err := g.Finalize(); err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) checkFinalized() {
	if !g.finalized {
		panic("dag: graph not finalized")
	}
}

// NumNodes returns the number of nodes (= T1, since tasks are unit-size).
func (g *Graph) NumNodes() int { return len(g.succs) }

// Work returns T1 as an int64 for symmetry with job.Instance.
func (g *Graph) Work() int64 { return int64(len(g.succs)) }

// CriticalPathLen returns T∞ in nodes: the number of levels.
func (g *Graph) CriticalPathLen() int {
	g.checkFinalized()
	return len(g.levelWidth)
}

// Level returns the level of node v (0-based: sources are level 0).
func (g *Graph) Level(v NodeID) int {
	g.checkFinalized()
	return int(g.level[v])
}

// LevelWidth returns the number of nodes at the given level.
func (g *Graph) LevelWidth(level int) int {
	g.checkFinalized()
	return g.levelWidth[level]
}

// AvgParallelism returns T1/T∞.
func (g *Graph) AvgParallelism() float64 {
	g.checkFinalized()
	return float64(g.NumNodes()) / float64(len(g.levelWidth))
}

// Sources returns all nodes with no predecessors.
func (g *Graph) Sources() []NodeID {
	var srcs []NodeID
	for v := range g.preds {
		if len(g.preds[v]) == 0 {
			srcs = append(srcs, NodeID(v))
		}
	}
	return srcs
}

// Preds returns a copy of v's predecessors.
func (g *Graph) Preds(v NodeID) []NodeID {
	return append([]NodeID(nil), g.preds[v]...)
}

// EachSucc calls f for every successor of v without allocating — the
// hot-path accessor executors use per completed task.
func (g *Graph) EachSucc(v NodeID, f func(NodeID)) {
	for _, w := range g.succs[v] {
		f(w)
	}
}

// NumPreds returns the in-degree of v without allocating.
func (g *Graph) NumPreds(v NodeID) int { return len(g.preds[v]) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	m := 0
	for _, s := range g.succs {
		m += len(s)
	}
	return m
}

// WriteDOT renders the graph in Graphviz DOT form, one rank per level, which
// the examples use to visualise small jobs.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	g.checkFinalized()
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n", name); err != nil {
		return err
	}
	for l := 0; l < len(g.levelWidth); l++ {
		if _, err := fmt.Fprintf(w, "  { rank=same;"); err != nil {
			return err
		}
		for v := range g.succs {
			if int(g.level[v]) == l {
				if _, err := fmt.Fprintf(w, " n%d;", v); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w, " }"); err != nil {
			return err
		}
	}
	for v := range g.succs {
		for _, u := range g.succs[v] {
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", v, u); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
