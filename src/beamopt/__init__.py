"""MU-MISO downlink beamforming toolkit.

Classical precoders (zero-forcing, MMSE, the uplink-downlink duality
structure), an unsupervised neural joint power-allocation + beamforming
design trained on its own sum-rate, and a benchmark harness that sweeps
spectral efficiency against SNR on tapped-delay-line channels.
"""

from .autodiff import Adam, BatchNormState, Tape, Tensor
from .channel import (ChannelDataset, TdlProfile, gen_dataset, load_dataset, save_dataset,
                      snr_db_to_noise_var)
from .config import ExperimentConfig, apply_desk_scale, parse_config
from .evaluation import ResultRow, evaluate
from .models import (ModelConfig, ModelParams, forward_graph, init_params, load_checkpoint,
                     save_checkpoint)
from .reference import (BeamformerSet, InfeasibleTargetsError, SingularChannelError,
                        VirtualUplinkPowers, equal_power, gen_taps, matched_filter,
                        mmse_beamformer, optimal_structure_bf, serialize_config, sinr_per_ue,
                        solve_virtual_uplink_powers, taps_to_freq, ue_snr_offsets,
                        weighted_sum_rate, zf_beamformer)
from .trainer import TrainConfig, TrainReport, TrainingDiverged, train

__version__ = "0.1.0"
