package router

// DisableHedging turns hedging off for the external cross-topology test,
// which needs exactly one upstream request per client request.
func (rt *Router) DisableHedging() { rt.noHedge = true }
