let current = "1.27.0"
