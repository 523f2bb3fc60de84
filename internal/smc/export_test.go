package smc

import "github.com/amuse/smc/internal/wire"

// statsReport gives the external tests the snapshot a stats request is
// answered with.
func (c *Cell) StatsReport() wire.CellStats { return c.statsReport() }
