"""The shared Table 1 config under the synthetic, Meetup and Concerts builders.

:class:`~repro.datasets.params.Table1Config` declares the seven Table 1
fields once and rejects invalid values for every builder alike, when the
config is built and before any network is generated; the CLI reports them as
a usage error (exit 2).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.errors import DatasetError
from repro.datasets import meetup
from repro.datasets.concerts import ConcertsConfig, generate_concerts
from repro.datasets.meetup import MeetupConfig, generate_meetup
from repro.datasets.params import Table1Config
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic

CONFIGS = {
    "synthetic": (SyntheticConfig, generate_synthetic),
    "meetup": (MeetupConfig, generate_meetup),
    "concerts": (ConcertsConfig, generate_concerts),
}

INVALID_TABLE1_VALUES = {
    "no-locations": {"num_locations": 0},
    "inverted-resources": {"required_resources_range": (5.0, 1.0)},
    "negative-resources": {"required_resources_range": (-1.0, 2.0)},
    "inverted-competing": {"competing_per_interval_range": (4, 1)},
    "negative-competing": {"competing_per_interval_range": (-1, 2)},
    "negative-theta": {"available_resources": -1.0},
    "no-users": {"num_users": 0},
}


class TestSharedValidation:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_configs_share_the_table1_fields(self, config_name):
        config_class, _ = CONFIGS[config_name]
        assert issubclass(config_class, Table1Config)
        config = config_class()
        for name in Table1Config.__dataclass_fields__:
            assert getattr(config, name) == getattr(Table1Config(), name)

    @pytest.mark.parametrize("values", sorted(INVALID_TABLE1_VALUES))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_invalid_value_rejected_before_any_draw(self, config_name, values, monkeypatch):
        config_class, builder = CONFIGS[config_name]
        overrides = INVALID_TABLE1_VALUES[values]

        def refuse(*args, **kwargs):
            raise AssertionError("the EBSN network was generated for an invalid config")

        monkeypatch.setattr(meetup, "generate_network", refuse)
        with pytest.raises(DatasetError):
            config_class(**overrides)
        with pytest.raises(DatasetError):
            builder(**overrides)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_config_or_overrides_not_both(self, config_name):
        config_class, builder = CONFIGS[config_name]
        with pytest.raises(DatasetError, match="not both"):
            builder(config_class(num_users=5), num_users=6)

    @pytest.mark.parametrize("dataset", ["Unf", "Meetup", "Concerts"])
    def test_cli_generate_rejects_zero_locations(self, dataset, tmp_path, capsys):
        target = tmp_path / "instance.json"
        code = main(
            [
                "generate", dataset, str(target),
                "--users", "20", "--events", "8", "--intervals", "4", "--locations", "0",
            ]
        )
        assert code == 2
        assert "num_locations must be positive" in capsys.readouterr().err
        assert not target.exists()
