package topology

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ad"
)

// WriteDOT renders the graph in Graphviz DOT format: one node per AD
// (shape by class) and one edge per link (style by link class).
func WriteDOT(w io.Writer, g *ad.Graph) error {
	if _, err := fmt.Fprintln(w, "graph internet {"); err != nil {
		return err
	}
	for _, info := range g.ADs() {
		shape := "ellipse"
		switch info.Level {
		case ad.Backbone:
			shape = "box"
		case ad.Regional:
			shape = "hexagon"
		case ad.Metro:
			shape = "diamond"
		}
		style := ""
		if info.Class == ad.MultihomedStub {
			style = ", peripheries=2"
		}
		if _, err := fmt.Fprintf(w, "  %d [label=%q, shape=%s%s];\n", info.ID, info.Name, shape, style); err != nil {
			return err
		}
	}
	for _, l := range g.Links() {
		style := "solid"
		switch l.Class {
		case ad.Lateral:
			style = "dotted"
		case ad.Bypass:
			style = "dashed"
		}
		if _, err := fmt.Fprintf(w, "  %d -- %d [style=%s];\n", l.A, l.B, style); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// jsonAD and jsonLink are the stable JSON wire forms of a topology.
type jsonAD struct {
	ID    uint32 `json:"id"`
	Name  string `json:"name"`
	Class string `json:"class"`
	Level string `json:"level"`
}

type jsonLink struct {
	A            uint32 `json:"a"`
	B            uint32 `json:"b"`
	Class        string `json:"class"`
	DelayMicros  int64  `json:"delay_micros"`
	BandwidthBps int64  `json:"bandwidth_bps,omitempty"`
	Cost         uint32 `json:"cost"`
}

type jsonTopology struct {
	ADs   []jsonAD   `json:"ads"`
	Links []jsonLink `json:"links"`
}

// WriteJSON serializes the graph as JSON.
func WriteJSON(w io.Writer, g *ad.Graph) error {
	var jt jsonTopology
	for _, info := range g.ADs() {
		jt.ADs = append(jt.ADs, jsonAD{
			ID:    uint32(info.ID),
			Name:  info.Name,
			Class: info.Class.String(),
			Level: info.Level.String(),
		})
	}
	for _, l := range g.Links() {
		jt.Links = append(jt.Links, jsonLink{
			A: uint32(l.A), B: uint32(l.B),
			Class:        l.Class.String(),
			DelayMicros:  l.DelayMicros,
			BandwidthBps: l.BandwidthBps,
			Cost:         l.Cost,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}
