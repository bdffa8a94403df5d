package dbscan

// ReferenceRun hands the brute-force reference to the external test package.
var ReferenceRun = referenceRun
