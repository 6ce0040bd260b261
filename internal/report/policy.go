package report

import "sort"

// Policy-tournament accounting: how competing decision policies score
// on the axes the paper's methodology cares about — goodput, tail
// latency, and the migration churn a policy induces. Rows are
// layer-agnostic so both E21 and mcpsweep -policy render through the
// same table.

// PolicyRow is one policy's aggregate tournament outcome.
type PolicyRow struct {
	Rank        int
	Policy      string
	Score       float64 // mean goodput normalized per scenario group (1 = group winner)
	GoodPerHour float64 // mean successful deploys/hour across the grid
	P99S        float64 // mean foreground deploy p99 latency
	Moves       float64 // mean migrations induced (DRS + rebalancer)
	Errors      int64   // failed deploys summed across the grid
}

// PolicyTable renders the tournament ranking, best first. Returns nil
// for an empty row set so callers can skip rendering cleanly.
func PolicyTable(title string, rows []PolicyRow) *Table {
	if len(rows) == 0 {
		return nil
	}
	t := NewTable(title,
		"rank", "policy", "score", "good/h", "p99 s", "moves", "errors")
	for _, r := range rows {
		t.AddRow(r.Rank, r.Policy, r.Score, r.GoodPerHour, r.P99S, r.Moves, r.Errors)
	}
	return t
}

// PolicyCell is one grid point of a policy tournament. Group names the
// rest-of-grid point the cell shares with its rivals (scenario, fault
// rate, varied keys): goodput is normalized within each group.
type PolicyCell struct {
	Policy      string
	Group       string
	GoodPerHour float64
	P99S        float64
	Moves       int64
	Errors      int
}

// RankPolicies scores each policy by its mean goodput normalized within
// every group (group winner = 1.0), so big and small configurations
// weigh equally, and averages the other axes over the policy's cells.
// Rank order: score desc, name asc — a total order, so the ranking
// depends only on the cells and their order, not on which worker ran
// which cell.
func RankPolicies(policies []string, cells []PolicyCell) []PolicyRow {
	groupMax := make(map[string]float64)
	for _, c := range cells {
		if c.GoodPerHour > groupMax[c.Group] {
			groupMax[c.Group] = c.GoodPerHour
		}
	}
	rows := make([]PolicyRow, 0, len(policies))
	for _, pol := range policies {
		row := PolicyRow{Policy: pol}
		var n int
		for _, c := range cells {
			if c.Policy != pol {
				continue
			}
			n++
			if m := groupMax[c.Group]; m > 0 {
				row.Score += c.GoodPerHour / m
			}
			row.GoodPerHour += c.GoodPerHour
			row.P99S += c.P99S
			row.Moves += float64(c.Moves)
			row.Errors += int64(c.Errors)
		}
		if n > 0 {
			row.Score /= float64(n)
			row.GoodPerHour /= float64(n)
			row.P99S /= float64(n)
			row.Moves /= float64(n)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Score != rows[j].Score {
			return rows[i].Score > rows[j].Score
		}
		return rows[i].Policy < rows[j].Policy
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows
}
