"""The four workloads, by the names ``BENCHMARK.json`` gives them."""

from . import cold_window_scan, durable_ingest_recover, routed_stream_mixed, warm_service_reads

WORKLOADS = {
    "cold_window_scan": cold_window_scan.run,
    "warm_service_reads": warm_service_reads.run,
    "durable_ingest_recover": durable_ingest_recover.run,
    "routed_stream_mixed": routed_stream_mixed.run,
}
