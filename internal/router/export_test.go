package router

import "context"

// DisableHedging turns hedging off for the external wire test, which needs
// exactly one upstream request per client request.
func (rt *Router) DisableHedging() { rt.noHedge = true }

// ProbeOnce runs one readmission probe for the external wire test, whose
// router runs without a probe loop.
func (rt *Router) ProbeOnce() { rt.probeOnce(context.Background()) }
