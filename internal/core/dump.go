package core

import (
	"sort"
	"strings"

	"provcompress/internal/metrics"
	"provcompress/internal/types"
)

// TableSource is any maintainer exposing its provenance tables per node
// (SimMaintainer, for every scheme).
type TableSource interface {
	RuleExecRows(addr types.NodeAddr) []RuleExec
	ProvRows(addr types.NodeAddr) []Prov
}

// DumpTables renders the ruleExec and prov tables of the given nodes in
// the style of the paper's Tables 1-4, with short hash prefixes.
func DumpTables(src TableSource, nodes []types.NodeAddr) string {
	sorted := append([]types.NodeAddr(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var exec []RuleExec
	var prov []Prov
	for _, n := range sorted {
		exec = append(exec, sortExecRows(src.RuleExecRows(n))...)
		prov = append(prov, sortProvRows(src.ProvRows(n))...)
	}

	var b strings.Builder
	b.WriteString("ruleExec\n")
	rows := make([][]string, 0, len(exec))
	for _, e := range exec {
		rows = append(rows, []string{
			string(e.Loc), e.RID.String(), e.Rule, vidList(e.VIDs),
			string(nlocOf(e.Next)), e.Next.RID.String(),
		})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"RLoc", "RID", "RULE", "VIDS", "NLoc", "NRID"}, rows))

	b.WriteString("\nprov\n")
	rows = rows[:0]
	for _, p := range prov {
		rows = append(rows, []string{
			string(p.Loc), p.VID.String(),
			string(nlocOf(p.Ref)), p.Ref.RID.String(), p.EvID.String(),
		})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"Loc", "VID", "RLoc", "RID", "EVID"}, rows))
	return b.String()
}

func nlocOf(r Ref) types.NodeAddr {
	if r.IsNil() {
		return "NULL"
	}
	return r.Loc
}

func vidList(vids []types.ID) string {
	if len(vids) == 0 {
		return "NULL"
	}
	parts := make([]string, len(vids))
	for i, v := range vids {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func sortExecRows(rows []RuleExec) []RuleExec {
	out := append([]RuleExec(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].RID.Hex() < out[j].RID.Hex()
	})
	return out
}

func sortProvRows(rows []Prov) []Prov {
	out := append([]Prov(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].VID != out[j].VID {
			return out[i].VID.Hex() < out[j].VID.Hex()
		}
		return out[i].EvID.Hex() < out[j].EvID.Hex()
	})
	return out
}
