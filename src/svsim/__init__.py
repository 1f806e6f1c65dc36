"""Cycle-level simulator and scheduling framework for systolic-vector
accelerators serving multi-tenant DNN inference."""

from .costs import (TaskCost, mem_transfer_cycles, systolic_cycles,
                    task_cycles, vector_cycles)
from .hardware import (ClusterConfig, HardwareConfig, PhysicalModel, energy_of,
                       load_hw_config, peak_performance, total_area)
from .models import (ModelGraph, builtin_model, from_umf, ingest_graph,
                     layer_macs, structure_equal, to_umf)
from .scheduling import (ClusterTable, build_request_tasks, has_schedule,
                         load_balance, partition_layer, rr_schedule)
from .simulation import (PerfReport, TraceLog, compute_report, export_trace,
                         run, trace_digest, verify_trace)
from .umf import (DataPacket, FrameHeader, InfoPacket, OpType, PacketType,
                  Precision, UmfFrame, decode_frame, encode_frame,
                  inspect_frame)
from .workloads import Workload, generate, load_manifest, save_manifest, standard_suite

__version__ = "0.1.0"
