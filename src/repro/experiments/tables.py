"""Table 1 and Table 2 regeneration (configuration and model census)."""

from __future__ import annotations

from ..config import DEFAULT_PLATFORM, PlatformConfig
from ..dnn import zoo
from ..units import GIGA


def render_table1(config: PlatformConfig | None = None) -> str:
    """Render the modeling-parameter table from the live configuration."""
    config = config or DEFAULT_PLATFORM
    lines = [
        "Table 1: modeling parameters",
        f"{'parameter':<46}{'value':>12}",
        "-" * 58,
        f"{'Data rate of optical link (per wavelength)':<46}"
        f"{config.wavelength_data_rate_bps / GIGA:>9.0f} Gb/s",
        f"{'Gateway frequency':<46}"
        f"{config.gateway_frequency_hz / GIGA:>10.0f} GHz",
        f"{'Electrical network-on-chip link width':<46}"
        f"{config.electrical_link_width_bits:>9d} bits",
        f"{'Electrical network-on-chip frequency':<46}"
        f"{config.electrical_noc_frequency_hz / GIGA:>10.0f} GHz",
        f"{'Number of wavelengths':<46}{config.n_wavelengths:>12d}",
        f"{'Number of memory-chiplets':<46}{config.n_memory_chiplets:>12d}",
        f"{'Number of compute-chiplets':<46}"
        f"{config.n_compute_chiplets:>12d}",
    ]
    for group in config.mac_groups:
        lines.append(f"{group.kind} MAC")
        lines.append(
            f"{'  Number of chiplets':<46}{group.n_chiplets:>12d}"
        )
        lines.append(
            f"{'  Number of MACs per chiplet':<46}"
            f"{group.macs_per_chiplet:>12d}"
        )
        lines.append(
            f"{'  Number of MACs per gateway':<46}"
            f"{group.macs_per_gateway:>12d}"
        )
    return "\n".join(lines)


def render_table2() -> str:
    """Render the DNN census with live counts vs the paper's values."""
    lines = [
        "Table 2: considered DNN models",
        f"{'model':<14}{'CONV':>6}{'FC':>4}{'params':>14}"
        f"{'paper params':>14}{'match':>7}",
        "-" * 60,
    ]
    for name in zoo.TABLE2_MODELS:
        model = zoo.build(name)
        conv, fc = zoo.TABLE2_LAYERS[name]
        target = zoo.TABLE2_PARAMS[name]
        match = (
            model.total_params == target
            and model.conv_layer_count == conv
            and model.fc_layer_count == fc
        )
        lines.append(
            f"{name:<14}{model.conv_layer_count:>6}{model.fc_layer_count:>4}"
            f"{model.total_params:>14,}{target:>14,}"
            f"{'yes' if match else 'NO':>7}"
        )
    return "\n".join(lines)
