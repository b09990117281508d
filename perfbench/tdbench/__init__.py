"""Benchmark for the tdhom command line: workloads, inputs, tracing."""
