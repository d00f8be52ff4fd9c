"""Module base class and Sequential container.

A module is a model *spec*: its constructor draws the parameters, and
:meth:`Module.parameters` fixes their order in the flat vector a node's
state row holds. The engines compute with the stacked mirror of
:mod:`repro.nn.batched`; the serial per-sample ``forward``/``backward``
of each layer, which that mirror reproduces bit for bit, is the test
suite's oracle (``tests/oracle_nn.py``).
"""

from __future__ import annotations

from typing import Iterator

from .parameter import Parameter

__all__ = ["Module", "Sequential"]


class Module:
    """Base class for all layers and models.

    Parameters are discovered automatically by scanning instance
    attributes (direct :class:`Parameter` attributes and nested
    :class:`Module` instances).
    """

    training: bool = True

    # -- parameter discovery -------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters in deterministic attribute order."""
        for _, value in sorted(vars(self).items()):
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Parameter):
                        yield item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs."""
        for attr, value in sorted(vars(self).items()):
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{idx}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{idx}", item

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Zero every parameter gradient buffer in place."""
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode ----------------------------------------------------

    def train(self) -> "Module":
        """Switch this module (and children) to training mode."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Switch this module (and children) to inference mode."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)


class Sequential(Module):
    """Layers applied left to right."""

    def __init__(self, *layers: Module) -> None:
        self.layers = list(layers)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]
