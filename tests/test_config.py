from pathlib import Path

import pytest

from metainterp import config

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def test_default_cfg_is_the_code_defaults():
    assert config.load_run_config(DEFAULT_CFG) == config.load_run_config(None)


def test_default_cfg_lists_every_key():
    settings = config.parse_config_text(DEFAULT_CFG.read_text(encoding="utf-8"))
    assert list(settings) == list(config._KEYS)


@pytest.mark.parametrize("kind", ["simple", "deepsets"])
def test_set_hidden_only_with_the_full_form(kind):
    with pytest.raises(config.ConfigError, match="^set_hidden applies only to set_kind full"):
        config.load_run_config(None, [f"set_kind={kind}", "set_hidden=8"])
    assert config.load_run_config(None, [f"set_kind={kind}", "set_hidden=none"]).train.set_hidden is None
    assert config.load_run_config(None, ["set_kind=full", "set_hidden=8"]).train.set_hidden == 8


@pytest.mark.parametrize("kind", ["simple", "deepsets"])
def test_dropout_rate_only_with_the_full_form(kind):
    # a configured rate, even the full form's default, with a kind that
    # has no dropout; none leaves the rate to the full form
    for rate in ("0.5", "0.1", "0"):
        with pytest.raises(config.ConfigError, match="^dropout_rate applies only to set_kind full"):
            config.load_run_config(None, [f"set_kind={kind}", f"dropout_rate={rate}"])
    assert config.load_run_config(None, [f"set_kind={kind}", "dropout_rate=none"]).train.dropout_rate is None
    assert config.load_run_config(None, ["set_kind=full", "dropout_rate=0.3"]).train.dropout_rate == 0.3
    assert config.load_run_config(None, ["set_kind=full"]).train.dropout_rate is None
