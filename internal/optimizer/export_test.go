package optimizer

// PushDownOnce exposes one pass of the pushdown rules to the reference
// fixpoint loop in prepared_test.go.
var PushDownOnce = pushDownOnce

// Rebound exposes the binding of a template node's parameters.
var Rebound = rebound
