"""queuemc: parallel MCMC over queue-dispatched likelihood workers.

A coordinator keeps every walker's state and pushes likelihood requests
through FIFO queues to a trigger-driven compute plane; responses flow back
on an output queue. Backends are interchangeable: a deterministic
virtual-time model of an elastic serverless platform, a local thread
pool, or remote worker processes. The bundled likelihood is a
multi-cluster radial-profile pipeline (polynomial profile, line-of-sight
projection, map expansion, beam convolution, chi-square).
"""

from .bench import (OverheadReport, bench_overhead, bench_timeline,
                    run_overhead_wave, run_stub_chain, total_time, verticality)
from .clocks import VirtualClock, WallClock
from .datasets import (ClusterDataset, load_container, make_synthetic,
                       read_container, save_container, write_container)
from .diagnostics import effective_sample_size, pooled, split_rhat, summarize
from .engine import (ChainConfig, ChainOutput, TimelineRecord, exchange_step,
                     mh_step, propose, run_chains, write_chain_csv,
                     write_timeline_csv)
from .fabric import (Message, MessageKind, Queue, QueueFabric, decode_message,
                     encode_message)
from .kernel import (HierarchicalParams, ProfileParams, abel_project,
                     chi_square, cluster_log_likelihood, convolve_beam,
                     eval_profile, evaluate, forward_abel,
                     hierarchical_log_prior, project_to_map)
from .payloads import (LikelihoodRequest, LikelihoodResponse, pack_request,
                       pack_response, unpack_request, unpack_response)
from .plane import (BackendModel, InvocationRecord, SimScheduler,
                    attach_backend, make_stub_key, simulate)
from .remote import RemoteWorkerClient, WorkerServer, serve
from .store import DirectoryObjectStore, MemoryObjectStore, StoredObject

__version__ = "0.1.0"
