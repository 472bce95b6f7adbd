"""The paper-scale memory probe, run at a desk shape.

`scale_probe.py` is run by hand at 512x512, C847; this runs its four stages
at a few pixels, so a renamed flag or a broken stage shows up here first.
"""
import re

import scale_probe


def test_probe_runs_every_stage_at_a_desk_shape(monkeypatch, tmp_path, capsys):
    for name, value in {"SIZE": 16, "FEATURE": 8, "DIM": 16, "CLASSES": 5,
                        "SYNONYMS": 3}.items():
        monkeypatch.setattr(scale_probe, name, value)
    assert scale_probe.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "16x16, 8x8xD16, C5, up to 3 synonyms"
    stages = [re.fullmatch(r"(\w+) +ru_maxrss +([\d.]+) MiB +([\d.]+) s", line)
              for line in lines[1:]]
    assert all(stages), lines
    assert [m[1] for m in stages] == ["gen", "prior", "fuse", "eval"]
    assert all(float(m[2]) > 0 for m in stages)
    assert (tmp_path / "scene" / "labels.cft1").stat().st_size > 0
