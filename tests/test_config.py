from pathlib import Path

from metainterp import config

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def test_default_cfg_is_the_code_defaults():
    assert config.load_run_config(DEFAULT_CFG) == config.load_run_config(None)


def test_default_cfg_lists_every_key():
    settings = config.parse_config_text(DEFAULT_CFG.read_text(encoding="utf-8"))
    assert list(settings) == list(config._KEYS)
