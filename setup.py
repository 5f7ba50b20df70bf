from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the compiled Philox words if possible; the package falls back to
    the NumPy words when compilation is unavailable."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: skipping compiled Philox ({exc}); "
                  "spde2d will use the NumPy backend")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: failed to build {ext.name} ({exc}); "
                  "spde2d will use the NumPy backend")


setup(ext_modules=[Extension("spde2d._philox", ["src/spde2d/_philox.c"],
                             extra_compile_args=["-O3"])],
      cmdclass={"build_ext": optional_build_ext})
