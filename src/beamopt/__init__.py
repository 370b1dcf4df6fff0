"""MU-MISO downlink beamforming toolkit.

Classical precoders (zero-forcing, MMSE, the uplink-downlink duality
structure), an unsupervised neural joint power-allocation + beamforming
design trained on its own sum-rate, and a benchmark harness that sweeps
spectral efficiency against SNR on tapped-delay-line channels.
"""

from .autodiff import Adam, BatchNormState, Tape, Tensor
from .baselines import (InfeasibleTargetsError, SingularChannelError, VirtualUplinkPowers,
                        equal_power, matched_filter, mmse_beamformer, optimal_structure_bf,
                        solve_virtual_uplink_powers, zf_beamformer)
from .channel import (ChannelDataset, TdlProfile, draw_ue_snrs, gen_channel, gen_dataset,
                      gen_taps, load_dataset, save_dataset, snr_db_to_noise_var, taps_to_freq)
from .config import ExperimentConfig, apply_desk_scale, parse_config, serialize_config
from .evaluation import ResultRow, evaluate
from .metrics import BeamformerSet, sinr_per_ue, weighted_sum_rate
from .models import (ModelConfig, ModelParams, forward_graph, init_params, load_checkpoint,
                     save_checkpoint)
from .trainer import TrainConfig, TrainReport, TrainingDiverged, train

__version__ = "0.1.0"
